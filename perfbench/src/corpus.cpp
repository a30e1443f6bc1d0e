#include "corpus.hpp"

#include <algorithm>
#include <sstream>

#include "annotate/script.hpp"
#include "cfront/cparser.hpp"
#include "common.hpp"
#include "idl/idlparser.hpp"
#include "javasrc/javaparser.hpp"

namespace perfbench {

using mbird::compare::Verdict;

namespace {

// A scalar spelled in each language; every row lowers to the same Mtype on
// all three sides.
struct Scalar {
  const char* c;
  const char* java;
  const char* idl;
};
constexpr Scalar kScalars[] = {
    {"int", "int", "long"},          {"float", "float", "float"},
    {"double", "double", "double"},  {"long long", "long", "long long"},
    {"short", "short", "short"},     {"bool", "boolean", "boolean"},
};
constexpr size_t kNumScalars = sizeof kScalars / sizeof kScalars[0];

// Integer scalars only: the other fields of a planted strict subtype.
constexpr Scalar kIntScalars[] = {
    {"int", "int", "long"}, {"long long", "long", "long long"},
    {"bool", "boolean", "boolean"}};

// A planted strict subtype differs in one real field's precision: float on
// the narrow side, double on the wide side.
constexpr Scalar kNarrow = {"float", "float", "float"};
constexpr Scalar kWide = {"double", "double", "double"};

enum class Plant { Equal, LeftNarrow, RightNarrow, Extra };

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::iter_swap(v.begin() + static_cast<std::ptrdiff_t>(i - 1),
                   v.begin() + static_cast<std::ptrdiff_t>(rng.below(i)));
  }
}

// Class and message shapes are drawn from fixed multisets in a seeded
// order, so every seed compiles the same mix of shapes; seeds differ in
// names, field types and orders, and reference targets. Independent draws
// made the cost of a cold pass differ by 10-20% from seed to seed.

/// The shape of a class that is not a planted subtype: scalar fields,
/// by-value sub-records, references, a counted array, a list.
struct Shape {
  size_t scalars, subs, refs;
  bool array, list;
};

/// `n` shapes cycling through every combination, shuffled.
std::vector<Shape> shapes(Rng& rng, size_t n) {
  std::vector<Shape> all;
  for (size_t sc = 2; sc <= 4; ++sc) {
    for (size_t su = 0; su <= 2; ++su) {
      for (size_t re = 0; re <= 2; ++re) {
        for (int al = 0; al < 4; ++al) {
          all.push_back({sc, su, re, (al & 1) != 0, (al & 2) != 0});
        }
      }
    }
  }
  std::vector<Shape> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = all[i % all.size()];
  shuffle(v, rng);
  return v;
}

/// `n` values cycling through lo..hi, shuffled.
std::vector<size_t> balanced(Rng& rng, size_t n, size_t lo, size_t hi) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = lo + i % (hi - lo + 1);
  shuffle(v, rng);
  return v;
}

/// `n` flags, `percent` of them set, shuffled.
std::vector<bool> flags(Rng& rng, size_t n, size_t percent) {
  std::vector<bool> v(n, false);
  for (size_t i = 0; i < (n * percent + 50) / 100; ++i) v[i] = true;
  shuffle(v, rng);
  return v;
}

/// One pair in ten mismatches; one in twenty is a strict subtype each way.
std::vector<Plant> plants(Rng& rng, size_t n) {
  std::vector<Plant> v(n, Plant::Equal);
  for (size_t i = 0; i < n; ++i) {
    switch (i % 20) {
      case 0: v[i] = Plant::LeftNarrow; break;
      case 1: v[i] = Plant::RightNarrow; break;
      case 2:
      case 3: v[i] = Plant::Extra; break;
      default: break;
    }
  }
  shuffle(v, rng);
  return v;
}

bool is_flat(Plant p) { return p == Plant::LeftNarrow || p == Plant::RightNarrow; }

Verdict verdict_of(Plant p) {
  switch (p) {
    case Plant::LeftNarrow: return Verdict::LeftSubtype;
    case Plant::RightNarrow: return Verdict::RightSubtype;
    case Plant::Extra: return Verdict::Mismatch;
    case Plant::Equal: break;
  }
  return Verdict::Equivalent;
}

/// One member on both sides: a declaration line per language.
struct Member {
  std::string left, right;
};

/// Emit `members` in one order on the left and a seeded permutation on the
/// right: the comparer's commutativity must find the correspondence.
void emit_members(std::ostringstream& l, std::ostringstream& r,
                  std::vector<Member> members, Rng& rng) {
  for (const auto& m : members) {
    if (!m.left.empty()) l << "  " << m.left << "\n";
  }
  shuffle(members, rng);
  for (const auto& m : members) {
    if (!m.right.empty()) r << "  " << m.right << "\n";
  }
}

std::string nm(const char* prefix, size_t i) {
  return prefix + std::to_string(i);
}

}  // namespace

Corpus make_corpus(uint64_t seed, int classes, int messages) {
  Rng rng = Rng::derive(seed, "corpus");
  Corpus out;

  // ---- C++ <-> Java classes (VisualAge trial) --------------------------------
  std::ostringstream c, j, cscript, jscript;
  const size_t n_sub = std::max<size_t>(4, static_cast<size_t>(classes) / 20);
  // Shared by-value sub-records, and a Vector collection of each.
  for (size_t s = 0; s < n_sub; ++s) {
    std::vector<Member> fields;
    const size_t nf = 2 + rng.below(2);
    for (size_t f = 0; f < nf; ++f) {
      const Scalar& t = kScalars[rng.below(kNumScalars)];
      const std::string fn = nm("s", f);
      fields.push_back({std::string(t.c) + " " + fn + ";",
                        std::string(t.java) + " " + fn + ";"});
    }
    c << "struct " << nm("S", s) << " {\n";
    j << "public class " << nm("S", s) << " {\n";
    emit_members(c, j, fields, rng);
    c << "};\n";
    j << "}\n";
    j << "public class " << nm("VS", s) << " extends java.util.Vector;\n";
    jscript << "annotate " << nm("VS", s) << " element " << nm("S", s)
            << " notnull-elements;\n";
  }
  // Fig. 8: a recursive Java list that must match a counted C array.
  j << "public class FList {\n  float datum;\n  FList next;\n}\n";

  // Planted strict subtypes are flat records whose only real field is the
  // planted one: subtype mode runs without hash pruning, and backtracking
  // over wide records with references made a pass's cost vary by 60%.
  const size_t n = static_cast<size_t>(classes);
  const std::vector<Plant> plant_of = plants(rng, n);
  const size_t n_shaped = static_cast<size_t>(
      std::count_if(plant_of.begin(), plant_of.end(),
                    [](Plant p) { return !is_flat(p); }));
  const std::vector<Shape> shape_of = shapes(rng, n_shaped);
  const std::vector<size_t> flat_scalars = balanced(rng, n - n_shaped, 2, 4);
  size_t shaped = 0, flats = 0;  // indexes into shape_of and flat_scalars
  size_t rl_due = 7;       // one recursive list per 25 classes (Fig. 8)
  // Reference targets: earlier equivalent classes that reference at most
  // classes without references, so no class's closure is deeper than two
  // references (unbounded chains made the slowest pairs seed-dependent).
  std::vector<size_t> targets;
  std::vector<size_t> depth(n, 0);
  for (size_t k = 0; k < n; ++k) {
    const std::string cls = nm("K", k);
    const Plant plant = plant_of[k];
    const bool flat = is_flat(plant);
    const Shape sh = flat ? Shape{flat_scalars[flats++], 0, 0, false, false}
                          : shape_of[shaped++];
    std::vector<Member> m;
    for (size_t f = 0; f < sh.scalars; ++f) {
      const Scalar& t = flat ? kIntScalars[rng.below(3)]
                             : kScalars[rng.below(kNumScalars)];
      const std::string fn = nm("f", f);
      m.push_back({std::string(t.c) + " " + fn + ";",
                   std::string(t.java) + " " + fn + ";"});
    }
    for (size_t v = 0; v < sh.subs; ++v) {  // by-value records
      const std::string sub = nm("S", rng.below(n_sub)), fn = nm("sv", v);
      m.push_back({sub + " " + fn + ";", sub + " " + fn + ";"});
      jscript << "annotate " << cls << "." << fn << " notnull;\n";
    }
    for (size_t p = 0; p < sh.refs && !targets.empty(); ++p) {
      // nullable references to earlier classes
      const size_t to = targets[rng.below(targets.size())];
      depth[k] = std::max(depth[k], depth[to] + 1);
      const std::string fn = nm("np", p);
      m.push_back({nm("K", to) + " *" + fn + ";", nm("K", to) + " " + fn + ";"});
    }
    if (sh.array) {  // counted C array <-> Java array
      const Scalar& t = kScalars[rng.below(kNumScalars)];
      m.push_back({std::string(t.c) + " *ar0;", std::string(t.java) + "[] ar0;"});
      m.push_back({"int ar0n;", ""});
      cscript << "annotate " << cls << ".ar0 length field ar0n;\n";
    }
    if (sh.list) {  // counted C array <-> Java Vector of records
      const size_t s = rng.below(n_sub);
      m.push_back({nm("S", s) + " *ls0;", nm("VS", s) + " ls0;"});
      m.push_back({"int ls0n;", ""});
      cscript << "annotate " << cls << ".ls0 length field ls0n;\n";
      jscript << "annotate " << cls << ".ls0 notnull;\n";
    }
    if (plant == Plant::Equal && k >= rl_due) {
      // recursive Java list <-> counted C array (Fig. 8)
      m.push_back({"float *rl0;", "FList rl0;"});
      m.push_back({"int rl0n;", ""});
      cscript << "annotate " << cls << ".rl0 length field rl0n;\n";
      rl_due += 25;
    }
    switch (plant) {
      case Plant::LeftNarrow:
      case Plant::RightNarrow: {
        const Scalar& l = plant == Plant::LeftNarrow ? kNarrow : kWide;
        const Scalar& r = plant == Plant::LeftNarrow ? kWide : kNarrow;
        m.push_back({std::string(l.c) + " sb;", std::string(r.java) + " sb;"});
        break;
      }
      case Plant::Extra:
        m.push_back({"int xtra;", ""});
        break;
      case Plant::Equal:
        if (depth[k] < 2) targets.push_back(k);
        break;
    }
    c << "class " << cls << " {\npublic:\n";
    j << "public class " << cls << " {\n";
    emit_members(c, j, m, rng);
    // Methods are parsed but do not enter a by-value class's Mtype.
    for (int q = 0; q < 3; ++q) {
      c << "  int m" << q << "(int a, float b);\n";
      j << "  public int m" << q << "(int a, float b);\n";
    }
    c << "};\n";
    j << "}\n";
    out.pairs.push_back({"classes.hpp:" + cls, "Classes.java:" + cls,
                         verdict_of(plant)});
  }
  out.files.push_back({"classes.hpp", "c", c.str(), cscript.str()});
  out.files.push_back({"Classes.java", "java", j.str(), jscript.str()});

  // ---- IDL <-> Java messages (collab trial) ----------------------------------
  std::ostringstream idl, mj, mjscript;
  constexpr size_t kParts = 4;
  for (size_t p = 0; p < kParts; ++p) {
    std::vector<Member> fields;
    for (size_t f = 0; f < 2; ++f) {
      const Scalar& t = kScalars[rng.below(kNumScalars)];
      const std::string fn = nm("x", f);
      fields.push_back({std::string(t.idl) + " " + fn + ";",
                        std::string(t.java) + " " + fn + ";"});
    }
    idl << "struct " << nm("P", p) << " {\n";
    mj << "public class " << nm("P", p) << " {\n";
    emit_members(idl, mj, fields, rng);
    idl << "};\n";
    mj << "}\n";
  }
  const size_t n_msg = static_cast<size_t>(messages);
  const std::vector<Plant> msg_plant = plants(rng, n_msg);
  const std::vector<size_t> msg_fields = balanced(rng, n_msg, 2, 5);
  const std::vector<bool> msg_vals = flags(rng, n_msg, 50);
  const std::vector<size_t> msg_parts = balanced(rng, n_msg, 1, 2);
  for (size_t k = 0; k < n_msg; ++k) {
    const std::string msg = nm("Msg", k);
    const Plant plant = msg_plant[k];
    const bool flat = is_flat(plant);
    std::vector<Member> m;
    for (size_t f = 0; f < msg_fields[k]; ++f) {
      const Scalar& t = flat ? kIntScalars[rng.below(3)]
                             : kScalars[rng.below(kNumScalars)];
      const std::string fn = nm("a", f);
      m.push_back({std::string(t.idl) + " " + fn + ";",
                   std::string(t.java) + " " + fn + ";"});
    }
    if (!flat && msg_vals[k]) {
      m.push_back({"sequence<long> vals;", "int[] vals;"});
    }
    for (size_t p = 0; !flat && p < msg_parts[k]; ++p) {
      const std::string part = nm("P", rng.below(kParts)), fn = nm("p", p);
      m.push_back({part + " " + fn + ";", part + " " + fn + ";"});
      mjscript << "annotate " << msg << "." << fn << " notnull;\n";
    }
    switch (plant) {
      case Plant::LeftNarrow:
        m.push_back({"float sb;", "double sb;"});
        break;
      case Plant::RightNarrow:
        m.push_back({"double sb;", "float sb;"});
        break;
      case Plant::Extra:
        m.push_back({"", "long xtra;"});
        break;
      case Plant::Equal:
        break;
    }
    idl << "struct " << msg << " {\n";
    mj << "public class " << msg << " {\n";
    emit_members(idl, mj, m, rng);
    idl << "};\n";
    mj << "}\n";
    out.pairs.push_back({"messages.idl:" + msg, "Messages.java:" + msg,
                         verdict_of(plant)});
  }
  out.files.push_back({"messages.idl", "idl", idl.str(), ""});
  out.files.push_back({"Messages.java", "java", mj.str(), mjscript.str()});
  return out;
}

bool load_corpus(const Corpus& c, std::vector<mbird::stype::Module>& modules,
                 mbird::DiagnosticEngine& diags) {
  for (const auto& f : c.files) {
    if (f.lang == "c") {
      modules.push_back(mbird::cfront::parse_c(f.text, f.name, diags));
    } else if (f.lang == "java") {
      modules.push_back(mbird::javasrc::parse_java(f.text, f.name, diags));
    } else {
      modules.push_back(mbird::idl::parse_idl(f.text, f.name, diags));
    }
    if (!f.script.empty()) {
      mbird::annotate::run_script(f.script, f.name + ".mba", modules.back(),
                                  diags);
    }
  }
  return !diags.has_errors();
}

std::vector<std::string> corpus_args(const Corpus& c) {
  std::vector<std::string> args;
  for (const auto& f : c.files) {
    args.push_back("--" + f.lang);
    args.push_back(f.name);
    if (!f.script.empty()) {
      args.push_back("--script");
      args.push_back(f.name + ".mba");
    }
  }
  return args;
}

}  // namespace perfbench
