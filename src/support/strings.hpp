// Small string utilities shared by lexers, printers, and code generators.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mbird {

[[nodiscard]] std::string_view trim(std::string_view s);
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix);

/// Escape a string for inclusion in generated C / project-file string
/// literals (quotes, backslashes, control characters).
[[nodiscard]] std::string escape_c(std::string_view s);
/// Inverse of escape_c for the escapes it produces.
[[nodiscard]] std::string unescape_c(std::string_view s);

/// Write `s` as a JSON string literal, quotes included: `"` and `\`
/// backslashed, \n \t \r by name, other control characters as \u00XX.
void write_json_string(std::ostream& os, std::string_view s);

/// "point" -> "Point"; used by code generators for identifier styling.
[[nodiscard]] std::string capitalize(std::string_view s);
/// "Foo::Bar.baz" -> "Foo_Bar_baz": a safe C identifier.
[[nodiscard]] std::string sanitize_identifier(std::string_view s);

}  // namespace mbird
