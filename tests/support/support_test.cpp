#include <gtest/gtest.h>

#include <sstream>

#include "support/diag.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/wide_int.hpp"
#include "support/writer.hpp"

namespace mbird {
namespace {

TEST(Diag, CollectsAndCounts) {
  DiagnosticEngine diags;
  EXPECT_FALSE(diags.has_errors());
  diags.warning({"f.c", 1, 2}, "w");
  EXPECT_FALSE(diags.has_errors());
  diags.error({"f.c", 3, 4}, "boom");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.error_count(), 1u);
  ASSERT_EQ(diags.all().size(), 2u);
  EXPECT_EQ(diags.all()[1].to_string(), "f.c:3:4: error: boom");
}

TEST(Diag, SinkForwarding) {
  int seen = 0;
  DiagnosticEngine diags([&](const Diagnostic&) { ++seen; });
  diags.note({}, "a");
  diags.error({}, "b");
  EXPECT_EQ(seen, 2);
}

TEST(Diag, ReplayToLateSinkSeesBacklog) {
  DiagnosticEngine diags;  // no sink at construction
  diags.warning({"f.c", 1, 2}, "early warning");
  diags.error({"f.c", 3, 4}, "early error");

  std::vector<std::string> seen;
  DiagnosticEngine::Sink sink = [&](const Diagnostic& d) {
    seen.push_back(d.to_string());
  };
  diags.replay_to(sink);  // backlog, in arrival order
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "f.c:1:2: warning: early warning");
  EXPECT_EQ(seen[1], "f.c:3:4: error: early error");

  diags.set_sink(sink);  // and from now on, live forwarding
  diags.note({"f.c", 5, 6}, "late note");
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[2], "f.c:5:6: note: late note");
  EXPECT_EQ(diags.all().size(), 3u);
}

TEST(Diag, ReplayToNullSinkIsNoop) {
  DiagnosticEngine diags;
  diags.error({}, "x");
  diags.replay_to(DiagnosticEngine::Sink{});  // must not crash
  EXPECT_EQ(diags.error_count(), 1u);
}

TEST(Diag, ClearResets) {
  DiagnosticEngine diags;
  diags.error({}, "x");
  diags.clear();
  EXPECT_FALSE(diags.has_errors());
  EXPECT_TRUE(diags.all().empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b \t\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitJoin) {
  auto parts = split("a.b..c", '.');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join({"x", "y"}, "::"), "x::y");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, EscapeRoundtrip) {
  std::string s = "a\"b\\c\nd\te\x01";
  EXPECT_EQ(unescape_c(escape_c(s)), s);
  EXPECT_EQ(escape_c("\n"), "\\n");
}

TEST(Strings, JsonStringSpellsControlCharacters) {
  std::ostringstream os;
  write_json_string(os, "a\"b\\c\n\t\r\x01\x1f\x7f");
  EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\n\\t\\r\\u0001\\u001f\x7f\"");
}

TEST(Strings, SanitizeIdentifier) {
  EXPECT_EQ(sanitize_identifier("Foo::Bar.baz"), "Foo_Bar_baz");
  EXPECT_EQ(sanitize_identifier("9lives"), "_9lives");
  EXPECT_EQ(sanitize_identifier(""), "_");
}

TEST(WideInt, ToStringBasics) {
  EXPECT_EQ(to_string(Int128{0}), "0");
  EXPECT_EQ(to_string(Int128{-1}), "-1");
  EXPECT_EQ(to_string(pow2(64) - 1), "18446744073709551615");
  EXPECT_EQ(to_string(-pow2(63)), "-9223372036854775808");
}

TEST(WideInt, ParseRoundtrip) {
  for (const char* s : {"0", "-1", "42", "18446744073709551615",
                        "-9223372036854775808", "170141183460469231731687303715884105727"}) {
    EXPECT_EQ(to_string(parse_int128(s)), s) << s;
  }
}

TEST(WideInt, ParseErrors) {
  EXPECT_THROW(parse_int128(""), std::invalid_argument);
  EXPECT_THROW(parse_int128("-"), std::invalid_argument);
  EXPECT_THROW(parse_int128("12x"), std::invalid_argument);
  EXPECT_THROW(parse_int128("999999999999999999999999999999999999999999999"),
               std::invalid_argument);
}

TEST(WideInt, ParseInt128Min) {
  Int128 min = parse_int128("-170141183460469231731687303715884105728");
  EXPECT_EQ(to_string(min), "-170141183460469231731687303715884105728");
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeBounds) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Writer, IndentationAndBlocks) {
  CodeWriter w;
  w.open("if (x) {");
  w.line("y();");
  w.close("}");
  EXPECT_EQ(w.str(), "if (x) {\n  y();\n}\n");
}

TEST(Writer, RawHandlesEmbeddedNewlines) {
  CodeWriter w;
  w.indent();
  w.raw("a\nb");
  w.line();
  EXPECT_EQ(w.str(), "  a\n  b\n");
}

TEST(Writer, BlankCollapses) {
  CodeWriter w;
  w.line("a");
  w.blank();
  w.blank();
  w.line("b");
  EXPECT_EQ(w.str(), "a\n\nb\n");
}

}  // namespace
}  // namespace mbird
