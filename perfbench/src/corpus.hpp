// The seeded declaration corpus, shaped like the paper's §5 trials: a
// VisualAge-sized set of inter-related classes declared once in C++ and
// once in Java, plus collab-style IDL<->Java message types. Every pair is
// built to have a known verdict, which is the oracle the compile workloads
// check replies against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compare/compare.hpp"
#include "stype/stype.hpp"
#include "support/diag.hpp"

namespace perfbench {

struct CorpusFile {
  std::string name;    // module name as the program sees it
  std::string lang;    // "c", "java" or "idl"
  std::string text;
  std::string script;  // annotation script applied to this module ("" none)
};

struct CorpusPair {
  std::string left;   // "module:decl" spec, C++ or IDL side
  std::string right;  // "module:decl" spec, Java side
  mbird::compare::Verdict expected = mbird::compare::Verdict::Equivalent;
};

struct Corpus {
  std::vector<CorpusFile> files;
  std::vector<CorpusPair> pairs;
};

/// Build the corpus for `seed`: `classes` C++/Java class pairs and
/// `messages` IDL/Java message pairs. About one pair in ten is planted to
/// mismatch and one in ten to be a strict subtype.
Corpus make_corpus(uint64_t seed, int classes, int messages);

/// Parse every file with its frontend and apply its annotation script.
/// Returns false (diagnostics in `diags`) when anything fails.
bool load_corpus(const Corpus& c, std::vector<mbird::stype::Module>& modules,
                 mbird::DiagnosticEngine& diags);

/// Command-line arguments that load the corpus into `mbird` from files
/// written to the current directory of the daemon.
std::vector<std::string> corpus_args(const Corpus& c);

}  // namespace perfbench
