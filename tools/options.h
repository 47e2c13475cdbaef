// Typed command-line option parser shared by every optselect
// subcommand.
//
// An OptionSet declares each flag exactly once with its type, default,
// range and help line; parsing, validation and `--help` generation all
// derive from that single declaration. Each value is parsed once, when
// it is given, into its type: an int outside its declared range, a
// number that overflows, is not finite or leaves its range, a bool
// other than 0|1, a string outside its declared choices, an unknown
// flag or a flag without a value all fail Parse, so the getters only
// ever read checked values. Bad invocations keep the historical
// contract: the caller prints the error and exits with status 2.
//
// The flag *sets* shared by several subcommands (testbed shape, serving
// knobs, cluster shape, store refresh, and the network edge's
// --listen/--connect/--max-conns family) are registered by the Add*Options
// helpers below, so a flag shared by two subcommands is declared once
// here, not copy-pasted.

#ifndef OPTSELECT_TOOLS_OPTIONS_H_
#define OPTSELECT_TOOLS_OPTIONS_H_

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace optselect {
namespace tools {

/// Largest thread or shard count a flag accepts.
constexpr long long kMaxThreads = 1024;
/// Longest duration flag, in seconds (one day): every seconds or
/// milliseconds value then converts to integral microseconds without
/// overflow.
constexpr double kMaxDurationSeconds = 86400.0;

/// One subcommand's typed flag declarations + parsed values.
class OptionSet {
 public:
  /// `synopsis` lists the positional arguments; each `<name>` in it is
  /// required (e.g. "<dir> <run...>" needs two). `summary` is the
  /// one-line subcommand description.
  OptionSet(std::string subcommand, std::string synopsis,
            std::string summary)
      : subcommand_(std::move(subcommand)),
        synopsis_(std::move(synopsis)),
        summary_(std::move(summary)) {}

  /// Starts a titled group in the generated help (registration order).
  void Group(const std::string& title) { current_group_ = title; }

  void AddString(const std::string& name, const std::string& fallback,
                 const std::string& help) {
    Add(New(name, Kind::kString, fallback, help));
  }
  /// One of `choices`, matched ignoring ASCII case; GetString returns
  /// the choice as declared.
  void AddChoice(const std::string& name, const std::string& fallback,
                 std::vector<std::string> choices, const std::string& help) {
    Option option = New(name, Kind::kChoice, fallback, help);
    option.choices = std::move(choices);
    Add(std::move(option));
  }
  /// An integer in [min, max]; by default any count >= 0.
  void AddInt(const std::string& name, long long fallback,
              const std::string& help, long long min = 0,
              long long max = LLONG_MAX) {
    Option option = New(name, Kind::kInt, std::to_string(fallback), help);
    option.int_min = min;
    option.int_max = max;
    Add(std::move(option));
  }
  /// A finite number in [min, max].
  void AddDouble(const std::string& name, double fallback,
                 const std::string& help, double min = -DBL_MAX,
                 double max = DBL_MAX) {
    Option option = New(name, Kind::kDouble, Format(fallback), help);
    option.num_min = min;
    option.num_max = max;
    Add(std::move(option));
  }
  /// A 0|1 flag (every optselect boolean takes an explicit value).
  void AddBool(const std::string& name, bool fallback,
               const std::string& help) {
    Add(New(name, Kind::kBool, fallback ? "1" : "0", help));
  }

  /// Parses argv[start..). False on any problem (unknown flag, missing
  /// value, bad value, missing positional) with the reason in error().
  /// `--help` / `-h` set help_requested() and stop parsing successfully.
  bool Parse(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
        help_requested_ = true;
        return true;
      }
      if (std::strncmp(arg, "--", 2) != 0) {
        positional_.push_back(arg);
        continue;
      }
      Option* option = Find(arg + 2);
      if (option == nullptr) {
        error_ = "unknown flag --" + std::string(arg + 2) + " for `" +
                 subcommand_ + "`";
        return false;
      }
      if (i + 1 >= argc) {
        error_ = std::string(arg) + " needs a value";
        return false;
      }
      const char* value = argv[++i];
      if (!Assign(option, value)) {
        error_ = "--" + option->name + " expects " + Domain(*option) +
                 ", got \"" + value + "\"";
        return false;
      }
      option->is_set = true;
    }
    const size_t required = static_cast<size_t>(
        std::count(synopsis_.begin(), synopsis_.end(), '<'));
    if (positional_.size() < required) {
      error_ = "`" + subcommand_ + "` needs " + synopsis_;
      return false;
    }
    return true;
  }

  bool help_requested() const { return help_requested_; }
  const std::string& error() const { return error_; }
  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& subcommand() const { return subcommand_; }
  const std::string& summary() const { return summary_; }
  /// The subcommand and its positional arguments ("run <dir> <out.run>").
  std::string Usage() const {
    return synopsis_.empty() ? subcommand_ : subcommand_ + " " + synopsis_;
  }

  bool IsSet(const std::string& name) const { return Get(name).is_set; }

  /// The value as given on the command line (or the default's text),
  /// for a flag of any type; a choice flag's value as declared.
  const std::string& GetString(const std::string& name) const {
    return Get(name).text;
  }
  long long GetInt(const std::string& name) const {
    return Get(name, Kind::kInt).int_value;
  }
  /// An int flag whose declared range is non-negative, as a size.
  size_t GetSize(const std::string& name) const {
    return static_cast<size_t>(GetInt(name));
  }
  double GetDouble(const std::string& name) const {
    return Get(name, Kind::kDouble).num_value;
  }
  bool GetBool(const std::string& name) const {
    return Get(name, Kind::kBool).int_value != 0;
  }

  /// Generated from the declarations: usage line, summary, then one
  /// aligned row per flag (grouped, registration order) with type,
  /// default and any declared range.
  void PrintHelp(std::FILE* out) const {
    std::fprintf(out, "usage: optselect %s%s\n\n%s\n", Usage().c_str(),
                 options_.empty() ? "" : " [flags]", summary_.c_str());
    std::string group;
    for (const Option& option : options_) {
      if (option.group != group) {
        group = option.group;
        std::fprintf(out, "\n%s:\n", group.c_str());
      }
      std::string left =
          "--" + option.name + " <" + KindName(option.kind) + ">";
      std::string notes;
      if (!option.fallback.empty()) notes = "default " + option.fallback;
      if (Bounded(option)) {
        notes += (notes.empty() ? "" : ", ") + Domain(option);
      }
      std::string right = option.help;
      if (!notes.empty()) right += " (" + notes + ")";
      std::fprintf(out, "  %-28s %s\n", left.c_str(), right.c_str());
    }
  }

 private:
  enum class Kind { kString, kChoice, kInt, kDouble, kBool };

  struct Option {
    std::string name;
    Kind kind = Kind::kString;
    std::string fallback;  // the default's text, shown by --help
    std::string help;
    std::string group;
    std::string text;  // the value as given (the fallback until set)
    long long int_value = 0;  // kInt, and kBool as 0|1
    double num_value = 0.0;   // kDouble
    long long int_min = 0;
    long long int_max = LLONG_MAX;
    double num_min = -DBL_MAX;
    double num_max = DBL_MAX;
    std::vector<std::string> choices;  // kChoice
    bool is_set = false;
  };

  static const char* KindName(Kind kind) {
    switch (kind) {
      case Kind::kString:
      case Kind::kChoice:
        return "str";
      case Kind::kInt:
        return "int";
      case Kind::kDouble:
        return "num";
      case Kind::kBool:
        return "0|1";
    }
    return "?";
  }

  static std::string Format(double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
  }

  /// True when the accepted values are narrower than the kind's
  /// default domain (int: any count >= 0; num: any finite number; str:
  /// any text).
  static bool Bounded(const Option& option) {
    if (option.kind == Kind::kChoice) return true;
    if (option.kind == Kind::kInt) {
      return option.int_min != 0 || option.int_max != LLONG_MAX;
    }
    if (option.kind == Kind::kDouble) {
      return option.num_min != -DBL_MAX || option.num_max != DBL_MAX;
    }
    return false;
  }

  /// What the option accepts, for error messages and help.
  static std::string Domain(const Option& option) {
    switch (option.kind) {
      case Kind::kInt:
        if (option.int_max == LLONG_MAX) {
          return "int >= " + std::to_string(option.int_min);
        }
        return "int in [" + std::to_string(option.int_min) + ", " +
               std::to_string(option.int_max) + "]";
      case Kind::kDouble:
        if (!Bounded(option)) return "finite num";
        return "num in [" + Format(option.num_min) + ", " +
               Format(option.num_max) + "]";
      case Kind::kBool:
        return "0|1";
      case Kind::kChoice: {
        std::string joined;
        for (const std::string& choice : option.choices) {
          joined += (joined.empty() ? "" : "|") + choice;
        }
        return "one of " + joined;
      }
      case Kind::kString:
        break;
    }
    return "str";
  }

  static bool EqualsIgnoringCase(const std::string& a, const std::string& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
             return std::tolower(static_cast<unsigned char>(x)) ==
                    std::tolower(static_cast<unsigned char>(y));
           });
  }

  /// Parses `text` into the option's type and range. False (value
  /// unchanged) when it does not fit.
  static bool Assign(Option* option, const std::string& text) {
    const char* begin = text.c_str();
    char* end = nullptr;
    errno = 0;
    switch (option->kind) {
      case Kind::kString:
        break;
      case Kind::kChoice:
        for (const std::string& choice : option->choices) {
          if (EqualsIgnoringCase(text, choice)) {
            option->text = choice;
            return true;
          }
        }
        return false;
      case Kind::kBool:
        if (text != "0" && text != "1") return false;
        option->int_value = text == "1";
        break;
      case Kind::kInt: {
        long long v = std::strtoll(begin, &end, 10);
        if (end == begin || *end != '\0' || errno == ERANGE ||
            v < option->int_min || v > option->int_max) {
          return false;
        }
        option->int_value = v;
        break;
      }
      case Kind::kDouble: {
        double v = std::strtod(begin, &end);
        if (end == begin || *end != '\0' || errno == ERANGE ||
            !std::isfinite(v) || v < option->num_min ||
            v > option->num_max) {
          return false;
        }
        option->num_value = v;
        break;
      }
    }
    option->text = text;
    return true;
  }

  /// A declaration mistake (duplicate name, default outside its own
  /// range, lookup of an undeclared flag) is a bug in the tool, not in
  /// the invocation: it aborts.
  [[noreturn]] void Die(const std::string& what) const {
    std::fprintf(stderr, "optselect %s: %s\n", subcommand_.c_str(),
                 what.c_str());
    std::abort();
  }

  Option New(const std::string& name, Kind kind, std::string fallback,
             const std::string& help) const {
    Option option;
    option.name = name;
    option.kind = kind;
    option.fallback = std::move(fallback);
    option.help = help;
    option.group = current_group_;
    return option;
  }

  /// Registers a declaration, its default parsed like a given value.
  void Add(Option option) {
    if (Find(option.name) != nullptr) {
      Die("flag --" + option.name + " declared twice");
    }
    if (!Assign(&option, option.fallback)) {
      Die("default of --" + option.name + " is not " + Domain(option));
    }
    options_.push_back(std::move(option));
  }

  Option* Find(const std::string& name) {
    for (Option& option : options_) {
      if (option.name == name) return &option;
    }
    return nullptr;
  }
  const Option* Find(const std::string& name) const {
    return const_cast<OptionSet*>(this)->Find(name);
  }

  const Option& Get(const std::string& name) const {
    const Option* option = Find(name);
    if (option == nullptr) Die("flag --" + name + " is not declared");
    return *option;
  }
  const Option& Get(const std::string& name, Kind kind) const {
    const Option& option = Get(name);
    if (option.kind != kind) Die("flag --" + name + " read as the wrong type");
    return option;
  }

  std::string subcommand_;
  std::string synopsis_;
  std::string summary_;
  std::string current_group_ = "flags";
  std::vector<Option> options_;
  std::vector<std::string> positional_;
  std::string error_;
  bool help_requested_ = false;
};

/// Testbed shape shared by every subcommand that regenerates it.
inline void AddTestbedOptions(OptionSet* opts) {
  opts->Group("testbed (must match `generate`)");
  opts->AddInt("topics", 20, "planted ambiguous topics");
  opts->AddInt("seed", 17, "testbed seed (also seeds replay mixes)");
}

/// The per-node serving knobs shared by serve/loadtest/stats/chaos.
/// `trace_every` and `cache` are the subcommand's defaults.
inline void AddServingOptions(OptionSet* opts, long long trace_every,
                              bool cache = true) {
  opts->Group("serving");
  opts->AddInt("workers", 0, "worker threads (0 = one per available CPU)",
               0, kMaxThreads);
  opts->AddInt("batch", 8, "micro-batch size (1 disables)");
  opts->AddBool("cache", cache, "result cache");
  opts->AddInt("cache-capacity", 4096, "cached rankings");
  opts->AddInt("candidates", 200, "|R_q| retrieved per query");
  opts->AddInt("k", 10, "ranking depth");
  opts->AddDouble("c", 0.3, "utility threshold c");
  opts->AddDouble("lambda", 0.15, "trade-off lambda");
  opts->AddInt("trace-every", trace_every,
               "deterministic 1-in-N request trace sampling");
}

/// Mapped-store (v4 zero-copy) knobs, for the subcommands that serve
/// off the mapping (serve/loadtest).
inline void AddMapOptions(OptionSet* opts) {
  opts->Group("mapped store (v4)");
  opts->AddChoice("map-warmup", "none", {"none", "madvise", "mlock"},
                  "page warm-up for the v4 mapping (mlock falls back to "
                  "madvise when refused)");
}

/// In-process sharded-cluster shape (serve/loadtest).
inline void AddClusterOptions(OptionSet* opts) {
  opts->Group("sharded cluster (default: one node)");
  opts->AddInt("shards", 1, "hash-partition the store over N shards", 0,
               kMaxThreads);
  opts->AddInt("replicate-hot", 0,
               "replicate the K hottest stored queries onto every shard");
}

/// Live store lifecycle (serve/loadtest).
inline void AddRefreshOptions(OptionSet* opts) {
  opts->Group("live store lifecycle");
  opts->AddDouble("refresh-interval", 0,
                  "poll the log every S seconds (0 = off)", 0,
                  kMaxDurationSeconds);
  opts->AddString("log-tail", "", "log file to tail (default <dir>/log.tsv)");
  opts->AddString("store-persist", "",
                  "save each swapped snapshot here (.shard<i> per shard)");
}

/// Network server edge (`serve --listen`): declared once, here.
inline void AddListenOptions(OptionSet* opts) {
  opts->Group("network edge (server)");
  opts->AddInt("listen", -1,
               "serve the wire protocol on this TCP port instead of the "
               "REPL (0 = ephemeral port)",
               -1, 65535);
  opts->AddString("port-file", "",
                  "write the bound port here once listening");
  opts->AddInt("shard-index", -1,
               "serve only this shard's slice of the store (with "
               "--num-shards; -1 = the whole store)",
               -1, kMaxThreads - 1);
  opts->AddInt("num-shards", 1,
               "total shards the store is partitioned over", 0, kMaxThreads);
  opts->AddInt("max-conns", 64, "accepted-connection ceiling");
  opts->AddInt("max-inflight", 128,
               "per-connection in-flight request ceiling");
}

/// Network client edge (`loadtest --connect`): declared once, here.
inline void AddConnectOptions(OptionSet* opts) {
  opts->Group("network edge (client)");
  opts->AddString("connect", "",
                  "replay against remote shard servers at "
                  "host:port[,host:port...] instead of in-process");
  opts->AddInt("pipeline", 32,
               "pipelined requests in flight per connection");
  opts->AddBool("verify-local", false,
                "also serve the mix in-process and require bit-identical "
                "ranking hashes (exits non-zero on mismatch)");
}

}  // namespace tools
}  // namespace optselect

#endif  // OPTSELECT_TOOLS_OPTIONS_H_
