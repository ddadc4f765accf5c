// cfc_lint: the sa/ registry linter as a CLI. Runs every registered
// algorithm solo and pairwise at n=2 and reports metadata/protocol
// contradictions in what those runs touched as structured diagnostics
// (src/sa/lint.h). Exit status 0 when no Error-severity diagnostic fired,
// 1 otherwise — warnings print but do not fail the run, so CI can gate on
// the exit status alone.
//
// Usage: cfc_lint [--quiet] [--json]
//   --quiet   print only Error diagnostics (warnings still counted in the
//             summary line).
//   --json    write the diagnostics to stdout as one JSON array of
//             structured rows ({severity, rule, kind, subject, message})
//             followed by a summary object, instead of the human format.
//             --quiet filters the rows the same way. Exit status is
//             unchanged — machine consumers can use either.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/json.h"
#include "sa/lint.h"

namespace {

void append_field(std::string& out, const char* key, const std::string& v,
                  bool last = false) {
  out += '"';
  out += key;
  out += "\": \"";
  cfc::json::append_escaped(out, v);
  out += last ? "\"" : "\", ";
}

}  // namespace

int main(int argc, char** argv) {
  bool quiet = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr, "cfc_lint: unknown option '%s'\n", argv[i]);
      std::fprintf(stderr, "usage: cfc_lint [--quiet] [--json]\n");
      return 2;
    }
  }

  const std::vector<cfc::LintDiagnostic> diags = cfc::lint_registry();
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::string rows;
  for (const cfc::LintDiagnostic& d : diags) {
    const bool is_error = d.severity == cfc::LintSeverity::Error;
    (is_error ? errors : warnings) += 1;
    if (!is_error && quiet) {
      continue;
    }
    if (json) {
      rows += rows.empty() ? "\n    {" : ",\n    {";
      append_field(rows, "severity", cfc::name(d.severity));
      append_field(rows, "rule", d.rule);
      append_field(rows, "kind", d.kind);
      append_field(rows, "subject", d.subject);
      append_field(rows, "message", d.message, /*last=*/true);
      rows += '}';
    } else {
      std::fprintf(stderr, "%s\n", d.format().c_str());
    }
  }
  if (json) {
    std::printf(
        "{\n  \"schema\": \"cfc.lint.v1\",\n  \"diagnostics\": [%s%s],\n"
        "  \"summary\": {\"errors\": %zu, \"warnings\": %zu}\n}\n",
        rows.c_str(), rows.empty() ? "" : "\n  ", errors, warnings);
  } else {
    std::printf("cfc_lint: %zu error(s), %zu warning(s)\n", errors,
                warnings);
  }
  return errors == 0 ? 0 : 1;
}
