// Tests for the CLI's typed flag parser (tools/options.h): declared
// defaults, typed parsing, and rejection of every malformed or
// out-of-range value before a subcommand runs — unknown flags, missing
// values, bad 0|1, integer and floating-point overflow, non-finite
// numbers, and values outside a flag's declared range (ports, counts,
// thread caps, durations). The tests only parse: no socket, no thread.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/options.h"

namespace optselect {
namespace tools {
namespace {

/// The serve subcommand's shared flag sets.
OptionSet ServeLike() {
  OptionSet opts("serve", "<dir>", "Serving node.");
  AddServingOptions(&opts, /*trace_every=*/1);
  AddClusterOptions(&opts);
  AddRefreshOptions(&opts);
  AddListenOptions(&opts);
  AddTestbedOptions(&opts);
  return opts;
}

bool Parse(OptionSet* opts, std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return opts->Parse(static_cast<int>(argv.size()), argv.data(), 0);
}

/// Parse must fail on `flag value` with an error naming the flag.
void ExpectRejected(const std::string& flag, const std::string& value) {
  OptionSet opts = ServeLike();
  EXPECT_FALSE(Parse(&opts, {"dir", "--" + flag, value}))
      << "--" << flag << " " << value;
  EXPECT_NE(opts.error().find("--" + flag), std::string::npos)
      << opts.error();
}

std::string HelpText(const OptionSet& opts) {
  std::FILE* f = std::tmpfile();
  opts.PrintHelp(f);
  std::string text(static_cast<size_t>(std::ftell(f)), '\0');
  std::rewind(f);
  size_t got = std::fread(&text[0], 1, text.size(), f);
  std::fclose(f);
  text.resize(got);
  return text;
}

TEST(OptionSetTest, DefaultsAreParsedDeclarations) {
  OptionSet opts = ServeLike();
  ASSERT_TRUE(Parse(&opts, {"dir"}));
  EXPECT_EQ(opts.GetSize("k"), 10u);
  EXPECT_EQ(opts.GetInt("listen"), -1);
  EXPECT_EQ(opts.GetInt("trace-every"), 1);
  EXPECT_DOUBLE_EQ(opts.GetDouble("c"), 0.3);
  EXPECT_DOUBLE_EQ(opts.GetDouble("refresh-interval"), 0.0);
  EXPECT_TRUE(opts.GetBool("cache"));
  EXPECT_EQ(opts.GetString("log-tail"), "");
  EXPECT_FALSE(opts.IsSet("k"));
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "dir");
}

TEST(OptionSetTest, ParsesEachTypeOnce) {
  OptionSet opts = ServeLike();
  ASSERT_TRUE(Parse(&opts, {"--k", "25", "dir", "--c", "0.30", "--cache",
                            "0", "--listen", "65535", "--log-tail",
                            "x.tsv", "--refresh-interval", "1.5"}))
      << opts.error();
  EXPECT_EQ(opts.GetSize("k"), 25u);
  EXPECT_TRUE(opts.IsSet("k"));
  EXPECT_DOUBLE_EQ(opts.GetDouble("c"), 0.3);
  EXPECT_EQ(opts.GetString("c"), "0.30");  // the value as typed
  EXPECT_FALSE(opts.GetBool("cache"));
  EXPECT_EQ(opts.GetInt("listen"), 65535);
  EXPECT_EQ(opts.GetString("log-tail"), "x.tsv");
  EXPECT_DOUBLE_EQ(opts.GetDouble("refresh-interval"), 1.5);
  EXPECT_EQ(opts.positional(), std::vector<std::string>{"dir"});
}

TEST(OptionSetTest, SubcommandDefaultIsTheDeclaredDefault) {
  OptionSet opts("loadtest", "<dir>", "Replay.");
  AddServingOptions(&opts, /*trace_every=*/64, /*cache=*/false);
  ASSERT_TRUE(Parse(&opts, {"dir"}));
  EXPECT_EQ(opts.GetInt("trace-every"), 64);
  EXPECT_FALSE(opts.GetBool("cache"));
  std::string help = HelpText(opts);
  EXPECT_NE(help.find("trace sampling (default 64)"), std::string::npos)
      << help;
  EXPECT_NE(help.find("result cache (default 0)"), std::string::npos);
}

TEST(OptionSetTest, RejectsUnknownFlag) {
  OptionSet opts = ServeLike();
  EXPECT_FALSE(Parse(&opts, {"dir", "--nope", "1"}));
  EXPECT_NE(opts.error().find("unknown flag --nope for `serve`"),
            std::string::npos)
      << opts.error();
}

TEST(OptionSetTest, RejectsMissingValue) {
  OptionSet opts = ServeLike();
  EXPECT_FALSE(Parse(&opts, {"dir", "--k"}));
  EXPECT_EQ(opts.error(), "--k needs a value");
}

TEST(OptionSetTest, RejectsMissingPositional) {
  OptionSet opts("run", "<dir> <out.run>", "Run.");
  EXPECT_FALSE(Parse(&opts, {"dir"}));
  EXPECT_EQ(opts.error(), "`run` needs <dir> <out.run>");
  OptionSet none("chaos", "", "Chaos.");
  EXPECT_TRUE(Parse(&none, {}));
}

TEST(OptionSetTest, RejectsBadBool) {
  ExpectRejected("cache", "yes");
  ExpectRejected("cache", "2");
  ExpectRejected("cache", "");
}

TEST(OptionSetTest, RejectsMalformedAndOverflowingInts) {
  ExpectRejected("k", "abc");
  ExpectRejected("k", "10x");
  ExpectRejected("k", "1.5");
  ExpectRejected("k", "99999999999999999999");   // ERANGE
  ExpectRejected("seed", "-99999999999999999999");
}

TEST(OptionSetTest, RejectsNegativeCounts) {
  ExpectRejected("k", "-1");        // would have served k=10
  ExpectRejected("topics", "-1");   // would have been SIZE_MAX topics
  ExpectRejected("cache-capacity", "-5");
  ExpectRejected("trace-every", "-1");
}

TEST(OptionSetTest, RejectsOutOfRangePortsAndThreadCounts) {
  ExpectRejected("listen", "70000");  // would have listened on 4464
  ExpectRejected("listen", "-2");
  ExpectRejected("workers", "1025");
  ExpectRejected("shards", "100000");
  ExpectRejected("shard-index", "1024");
  OptionSet opts = ServeLike();
  EXPECT_TRUE(Parse(&opts, {"dir", "--listen", "0", "--workers", "1024",
                            "--shard-index", "1023"}))
      << opts.error();
}

TEST(OptionSetTest, RejectsNonFiniteAndOverflowingNumbers) {
  ExpectRejected("c", "nan");
  ExpectRejected("c", "inf");
  ExpectRejected("lambda", "-inf");
  ExpectRejected("c", "1e400");    // ERANGE
  ExpectRejected("c", "0.3abc");
  ExpectRejected("refresh-interval", "inf");
  ExpectRejected("refresh-interval", "nan");
  ExpectRejected("refresh-interval", "1e300");  // beyond a day
  ExpectRejected("refresh-interval", "-1");
}

TEST(OptionSetTest, DurationRangeKeepsMicrosecondCastsDefined) {
  OptionSet opts("chaos", "", "Chaos.");
  opts.AddDouble("hedge-ms", 2, "hedge delay", 0,
                 kMaxDurationSeconds * 1000.0);
  EXPECT_FALSE(Parse(&opts, {"--hedge-ms", "1e300"}));
  EXPECT_NE(opts.error().find("num in [0, 8.64e+07]"), std::string::npos)
      << opts.error();
  OptionSet ok("chaos", "", "Chaos.");
  ok.AddDouble("hedge-ms", 2, "hedge delay", 0,
               kMaxDurationSeconds * 1000.0);
  ASSERT_TRUE(Parse(&ok, {"--hedge-ms", "8.64e7"}));
  EXPECT_DOUBLE_EQ(ok.GetDouble("hedge-ms"), 8.64e7);
}

TEST(OptionSetTest, RejectionNamesTheAcceptedDomain) {
  OptionSet opts = ServeLike();
  EXPECT_FALSE(Parse(&opts, {"dir", "--listen", "70000"}));
  EXPECT_EQ(opts.error(),
            "--listen expects int in [-1, 65535], got \"70000\"");
  OptionSet counts = ServeLike();
  EXPECT_FALSE(Parse(&counts, {"dir", "--k", "-1"}));
  EXPECT_EQ(counts.error(), "--k expects int >= 0, got \"-1\"");
}

TEST(OptionSetTest, HelpStopsParsingAndListsEveryFlag) {
  for (const char* flag : {"--help", "-h"}) {
    OptionSet opts = ServeLike();
    // --help wins even before the positional and ahead of a bad value.
    EXPECT_TRUE(Parse(&opts, {flag, "--listen", "70000"}));
    EXPECT_TRUE(opts.help_requested());
  }
  std::string help = HelpText(ServeLike());
  EXPECT_EQ(help.rfind("usage: optselect serve <dir> [flags]", 0), 0u)
      << help;
  for (const char* name : {"--workers <int>", "--c <num>", "--cache <0|1>",
                           "--log-tail <str>", "--listen <int>"}) {
    EXPECT_NE(help.find(name), std::string::npos) << name;
  }
  EXPECT_NE(help.find("(default -1, int in [-1, 65535])"), std::string::npos)
      << help;
}

}  // namespace
}  // namespace tools
}  // namespace optselect
