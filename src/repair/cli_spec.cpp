#include "repair/cli_spec.hpp"

namespace lr::repair {

const std::vector<support::FlagSpec>& repair_cli_flag_specs() {
  static const std::vector<support::FlagSpec> specs = {
      {"batch", "DIR", "repair every DIR/*.lr on a thread pool"},
      {"jobs", "N", "batch worker threads (default: hardware)"},
      {"resume", "",
       "batch: skip tasks whose checkpoint manifest row and\n"
       "exported repaired model still validate; re-run the rest"},
      {"manifest", "FILE",
       "batch checkpoint manifest path (default\n"
       "DIR/batch.manifest.json; implies checkpointing)"},
      {"export-dir", "OUTDIR",
       "batch: directory for repaired-model exports\n"
       "(default DIR/repaired when checkpointing)"},
      {"task-timeout", "SECS",
       "per-task cooperative deadline, checked at\n"
       "fixpoint-round granularity (default: none)"},
      {"retries", "N",
       "re-run a task up to N extra times after a timeout\n"
       "or crash (default 0; honest failures never retry)"},
      {"chain", "N",
       "built-in stabilizing chain Sc^N instead of a model\n"
       "file (--domain=D, default 4)"},
      {"domain", "D", "value domain for --chain (default 4)"},
      {"cautious", "", "use the cautious baseline (default: lazy)"},
      {"no-heuristic", "", "disable the reachable-states restriction"},
      {"level", "LEVEL", "masking|failsafe|nonmasking (default masking)"},
      {"print-program", "", "print the synthesized guarded commands"},
      {"export", "OUT.lr", "write the synthesized model"},
      {"no-verify", "", "skip the independent verifier"},
      {"stats", "",
       "print engine statistics (incl. BDD manager), the\n"
       "per-span BDD attribution table, the BDD memory report\n"
       "(per-level node histogram, table/cache occupancy) and\n"
       "the GC introspection section"},
      {"flamegraph", "FILE",
       "write the BDD call-path profile in collapsed-stack\n"
       "format (speedscope / inferno compatible); single-model\n"
       "mode only"},
      {"flamegraph-weight", "W",
       "collapsed-stack line weight: steps (default,\n"
       "deterministic work steps), seconds or nodes"},
      {"progress", "SECS",
       "heartbeat lines on stderr every SECS seconds\n"
       "(default 10; LR_PROGRESS env var also works)"},
      {"trace-out", "FILE", "write a Chrome trace-event JSON span trace"},
      {"metrics-json", "FILE", "write a machine-readable JSON run report"},
      {"journal", "FILE",
       "write the repair decision journal (JSONL; one event\n"
       "per decision, with BDD witness states). With --batch,\n"
       "FILE is a directory: one NAME.journal.jsonl per model"},
      {"explain", "",
       "print a per-round narrative of the repair decisions\n"
       "(from the journal; single-model mode only)"},
      {"log-level", "LEVEL",
       "trace|debug|info|warn|error|off (default warn;\n"
       "LR_LOG_LEVEL env var also works)"},
      {"help", "", "print this help and exit"},
      {"help-markdown", "",
       "print the flag reference as Markdown (the generator\n"
       "behind docs/flags.md) and exit"},
  };
  return specs;
}

std::string repair_cli_flags_markdown() {
  std::string out;
  out += "# `repair_cli` flag reference\n";
  out += "\n";
  out +=
      "<!-- Generated by `repair_cli --help-markdown` from the FlagSpec\n"
      "     table in src/repair/cli_spec.cpp. Do not edit by hand: the\n"
      "     docs test (`ctest -L docs`) fails when this file drifts.\n"
      "     Regenerate with:\n"
      "       build/examples/repair_cli --help-markdown > docs/flags.md -->\n";
  out += "\n";
  out += "| Flag | Value | Description |\n";
  out += "| --- | --- | --- |\n";
  for (const support::FlagSpec& spec : repair_cli_flag_specs()) {
    out += "| `--" + spec.name + "` | ";
    out += spec.value.empty() ? "" : "`" + spec.value + "`";
    out += " | ";
    // Help strings wrap with embedded newlines for the terminal; a table
    // cell wants one line, and literal '|' would split the cell.
    std::string help;
    for (const char c : spec.help) {
      if (c == '\n') {
        help += ' ';
      } else if (c == '|') {
        help += "\\|";
      } else {
        help += c;
      }
    }
    out += help + " |\n";
  }
  return out;
}

std::string repair_cli_usage(const std::string& program) {
  std::string out;
  out += "usage: " + program + " MODEL.lr [options]\n";
  out += "       " + program + " --chain=N [--domain=D] [options]\n";
  out += "       " + program +
         " --batch DIR [--jobs=N] [--resume] [options]\n";
  out += support::format_flag_help(repair_cli_flag_specs());
  return out;
}

}  // namespace lr::repair
