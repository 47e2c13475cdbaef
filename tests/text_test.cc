// Unit tests for the text module: tokenizer, Porter stemmer (published
// vectors), stopwords, vocabulary, term vectors, analyzer pipeline.

#include <cctype>
#include <cmath>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "text/analyzer.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/term_vector.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace optselect {
namespace text {
namespace {

// --------------------------------------------------------------- Tokenizer

TEST(TokenizerTest, LowercasesAndSplitsOnNonAlnum) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("Apple-Pie, 42!"),
            (std::vector<std::string>{"apple", "pie", "42"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  Tokenizer t;
  EXPECT_TRUE(t.Tokenize("").empty());
  EXPECT_TRUE(t.Tokenize("... ---").empty());
}

TEST(TokenizerTest, MinLengthFilter) {
  Tokenizer::Options opt;
  opt.min_token_length = 2;
  Tokenizer t(opt);
  EXPECT_EQ(t.Tokenize("a bb c ddd"),
            (std::vector<std::string>{"bb", "ddd"}));
}

TEST(TokenizerTest, MaxLengthTruncation) {
  Tokenizer::Options opt;
  opt.max_token_length = 4;
  Tokenizer t(opt);
  EXPECT_EQ(t.Tokenize("abcdefgh"), (std::vector<std::string>{"abcd"}));
}

TEST(TokenizerTest, KeepsDigitsInsideTokens) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("os x 10 7"),
            (std::vector<std::string>{"os", "x", "10", "7"}));
}

/// Reference tokenizer: the plain per-character push/flush loop that
/// the visitor (and Tokenize, which wraps it) must reproduce.
std::vector<std::string> OracleTokenize(std::string_view input,
                                        const Tokenizer::Options& options) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&]() {
    if (current.size() >= options.min_token_length) {
      if (current.size() > options.max_token_length) {
        current.resize(options.max_token_length);
      }
      tokens.push_back(current);
    }
    current.clear();
  };
  for (char ch : input) {
    unsigned char c = static_cast<unsigned char>(ch);
    if (std::isalnum(c)) {
      current.push_back(static_cast<char>(std::tolower(c)));
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

std::vector<std::string> VisitedTokens(const Tokenizer& t,
                                       std::string_view input) {
  std::vector<std::string> out;
  t.ForEachToken(input, [&](std::string_view token) {
    out.emplace_back(token);
  });
  return out;
}

TEST(TokenizerTest, ForEachTokenMatchesOracleOnAdversarialInput) {
  std::vector<std::string> inputs = {
      "",
      " ",
      "... ---",
      "\t\n\r",
      "a",
      "Apple-Pie, 42!",
      "a  b   c",
      " leading",
      "trailing ",
      "2009 iPhone3GS R2-D2 0 007",
      std::string(200, 'X'),
      "abc" + std::string(70, 'q') + " short " + std::string(65, '9'),
      "caf\xc3\xa9 na\xefve \x80\xff tail\xc0",
      std::string("nul\0byte", 8),
  };
  // Random bytes over the whole 0..255 range, and random text over a
  // small alphabet of letters, digits and separators (longer tokens).
  std::mt19937_64 rng(97);
  const std::string alphabet = "aZ9 -\xe9";
  for (int i = 0; i < 200; ++i) {
    std::string bytes(rng() % 300, '\0');
    for (char& c : bytes) c = static_cast<char>(rng() & 0xFF);
    inputs.push_back(std::move(bytes));
    std::string text(rng() % 300, ' ');
    for (char& c : text) c = alphabet[rng() % alphabet.size()];
    inputs.push_back(std::move(text));
  }
  std::vector<Tokenizer::Options> option_sets(7);
  option_sets[1].max_token_length = 3;
  option_sets[2].min_token_length = 0;  // empty runs are tokens too
  option_sets[3].min_token_length = 4;
  option_sets[3].max_token_length = 5;
  option_sets[4].min_token_length = 5;  // min above max
  option_sets[4].max_token_length = 2;
  option_sets[5].max_token_length = Tokenizer::kInlineTokenBytes + 36;
  option_sets[6].max_token_length = 0;
  for (size_t o = 0; o < option_sets.size(); ++o) {
    Tokenizer t(option_sets[o]);
    for (size_t i = 0; i < inputs.size(); ++i) {
      std::vector<std::string> want = OracleTokenize(inputs[i], option_sets[o]);
      EXPECT_EQ(VisitedTokens(t, inputs[i]), want)
          << "options " << o << " input " << i;
      EXPECT_EQ(t.Tokenize(inputs[i]), want)
          << "options " << o << " input " << i;
      // The sizing bounds hold for every tokenization.
      size_t spelled = 0;
      for (const std::string& token : want) spelled += token.size() + 1;
      EXPECT_LE(want.size(), t.MaxTokens(inputs[i].size()))
          << "options " << o << " input " << i;
      EXPECT_LE(spelled, t.MaxSpelledBytes(inputs[i].size()))
          << "options " << o << " input " << i;
    }
  }
}

TEST(TokenizerTest, SizeBoundsAreReached) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("a b c").size(), t.MaxTokens(5));  // 3
  EXPECT_EQ(t.MaxSpelledBytes(5), 6u);  // "a\0b\0c\0"
  EXPECT_EQ(t.MaxTokens(0), 0u);
  EXPECT_EQ(t.MaxTokens(1), 1u);
  Tokenizer::Options opt;
  opt.min_token_length = 0;  // the empty runs are tokens too
  Tokenizer every_run(opt);
  EXPECT_EQ(every_run.Tokenize("  ").size(), every_run.MaxTokens(2));
  EXPECT_EQ(every_run.Tokenize("").size(), every_run.MaxTokens(0));
}

// ----------------------------------------------------------- PorterStemmer

struct StemCase {
  const char* in;
  const char* out;
};

class PorterVectorTest : public ::testing::TestWithParam<StemCase> {};

// Classic vectors from Porter's paper and the reference implementation's
// sample vocabulary.
INSTANTIATE_TEST_SUITE_P(
    KnownVectors, PorterVectorTest,
    ::testing::Values(
        StemCase{"caresses", "caress"}, StemCase{"ponies", "poni"},
        StemCase{"ties", "ti"}, StemCase{"caress", "caress"},
        StemCase{"cats", "cat"}, StemCase{"feed", "feed"},
        StemCase{"agreed", "agre"}, StemCase{"plastered", "plaster"},
        StemCase{"bled", "bled"}, StemCase{"motoring", "motor"},
        StemCase{"sing", "sing"}, StemCase{"conflated", "conflat"},
        StemCase{"troubled", "troubl"}, StemCase{"sized", "size"},
        StemCase{"hopping", "hop"}, StemCase{"tanned", "tan"},
        StemCase{"falling", "fall"}, StemCase{"hissing", "hiss"},
        StemCase{"fizzed", "fizz"}, StemCase{"failing", "fail"},
        StemCase{"filing", "file"}, StemCase{"happy", "happi"},
        StemCase{"sky", "sky"}, StemCase{"relational", "relat"},
        StemCase{"conditional", "condit"}, StemCase{"rational", "ration"},
        StemCase{"valenci", "valenc"}, StemCase{"hesitanci", "hesit"},
        StemCase{"digitizer", "digit"}, StemCase{"conformabli", "conform"},
        StemCase{"radicalli", "radic"}, StemCase{"differentli", "differ"},
        StemCase{"vileli", "vile"}, StemCase{"analogousli", "analog"},
        StemCase{"vietnamization", "vietnam"}, StemCase{"predication",
        "predic"}, StemCase{"operator", "oper"},
        StemCase{"feudalism", "feudal"}, StemCase{"decisiveness", "decis"},
        StemCase{"hopefulness", "hope"}, StemCase{"callousness", "callous"},
        StemCase{"formaliti", "formal"}, StemCase{"sensitiviti", "sensit"},
        StemCase{"sensibiliti", "sensibl"}, StemCase{"triplicate",
        "triplic"}, StemCase{"formative", "form"},
        StemCase{"formalize", "formal"}, StemCase{"electriciti",
        "electr"}, StemCase{"electrical", "electr"},
        StemCase{"hopeful", "hope"}, StemCase{"goodness", "good"},
        StemCase{"revival", "reviv"}, StemCase{"allowance", "allow"},
        StemCase{"inference", "infer"}, StemCase{"airliner", "airlin"},
        StemCase{"gyroscopic", "gyroscop"}, StemCase{"adjustable",
        "adjust"}, StemCase{"defensible", "defens"},
        StemCase{"irritant", "irrit"}, StemCase{"replacement", "replac"},
        StemCase{"adjustment", "adjust"}, StemCase{"dependent", "depend"},
        StemCase{"adoption", "adopt"}, StemCase{"homologou", "homolog"},
        StemCase{"communism", "commun"}, StemCase{"activate", "activ"},
        StemCase{"angulariti", "angular"}, StemCase{"homologous",
        "homolog"}, StemCase{"effective", "effect"},
        StemCase{"bowdlerize", "bowdler"}, StemCase{"probate", "probat"},
        StemCase{"rate", "rate"}, StemCase{"cease", "ceas"},
        StemCase{"controll", "control"}, StemCase{"roll", "roll"}));

TEST_P(PorterVectorTest, StemsAsPublished) {
  PorterStemmer stemmer;
  const StemCase& c = GetParam();
  EXPECT_EQ(stemmer.Stem(c.in), c.out) << "input: " << c.in;
}

TEST(PorterStemmerTest, ShortWordsUnchanged) {
  PorterStemmer s;
  EXPECT_EQ(s.Stem("a"), "a");
  EXPECT_EQ(s.Stem("is"), "is");
  EXPECT_EQ(s.Stem("ox"), "ox");
}

TEST(PorterStemmerTest, Idempotent) {
  PorterStemmer s;
  for (const char* w :
       {"running", "relational", "happiness", "leopard", "pictures",
        "diversification", "probabilities", "utilities"}) {
    std::string once = s.Stem(w);
    EXPECT_EQ(s.Stem(once), once) << "word: " << w;
  }
}

TEST(PorterStemmerTest, CollapsesInflectionsTogether) {
  PorterStemmer s;
  EXPECT_EQ(s.Stem("connect"), s.Stem("connected"));
  EXPECT_EQ(s.Stem("connect"), s.Stem("connecting"));
  EXPECT_EQ(s.Stem("connect"), s.Stem("connection"));
  EXPECT_EQ(s.Stem("connect"), s.Stem("connections"));
}

// ------------------------------------------------------------- Stopwords

TEST(StopwordsTest, ContainsCommonFunctionWords) {
  StopwordSet sw;
  for (const char* w : {"the", "a", "of", "and", "is", "to", "in"}) {
    EXPECT_TRUE(sw.Contains(w)) << w;
  }
}

TEST(StopwordsTest, DoesNotContainContentWords) {
  StopwordSet sw;
  for (const char* w : {"leopard", "apple", "tank", "diversification"}) {
    EXPECT_FALSE(sw.Contains(w)) << w;
  }
}

TEST(StopwordsTest, CustomList) {
  std::unordered_set<std::string_view> words{"foo"};
  StopwordSet sw(std::move(words));
  EXPECT_TRUE(sw.Contains("foo"));
  EXPECT_FALSE(sw.Contains("the"));
  EXPECT_EQ(sw.size(), 1u);
}

// ------------------------------------------------------------ Vocabulary

TEST(VocabularyTest, GetOrAddIsStable) {
  Vocabulary v;
  TermId a = v.GetOrAdd("apple");
  TermId b = v.GetOrAdd("banana");
  EXPECT_NE(a, b);
  EXPECT_EQ(v.GetOrAdd("apple"), a);
  EXPECT_EQ(v.size(), 2u);
}

TEST(VocabularyTest, LookupMissing) {
  Vocabulary v;
  EXPECT_EQ(v.Lookup("ghost"), kInvalidTermId);
  v.GetOrAdd("real");
  EXPECT_NE(v.Lookup("real"), kInvalidTermId);
}

TEST(VocabularyTest, TermRoundTrip) {
  Vocabulary v;
  TermId id = v.GetOrAdd("leopard");
  EXPECT_EQ(v.term(id), "leopard");
}

// ------------------------------------------------------------ TermVector

TEST(TermVectorTest, FromEntriesMergesDuplicates) {
  TermVector tv = TermVector::FromEntries({{3, 1.0}, {1, 2.0}, {3, 4.0}});
  EXPECT_EQ(tv.size(), 2u);
  EXPECT_DOUBLE_EQ(tv.WeightOf(3), 5.0);
  EXPECT_DOUBLE_EQ(tv.WeightOf(1), 2.0);
  EXPECT_DOUBLE_EQ(tv.WeightOf(99), 0.0);
}

TEST(TermVectorTest, DropsZeroWeights) {
  TermVector tv = TermVector::FromEntries({{1, 0.0}, {2, 3.0}});
  EXPECT_EQ(tv.size(), 1u);
  TermVector cancel = TermVector::FromEntries({{5, 2.0}, {5, -2.0}});
  EXPECT_TRUE(cancel.empty());
}

TEST(TermVectorTest, FromSortedEntriesEqualsFromEntries) {
  const std::vector<TermVector::Entry> sorted = {
      {2, 0.1}, {5, 1.0 / 3.0}, {9, 7.25}, {40, 1e-9}};
  TermVector want = TermVector::FromEntries({sorted[2], sorted[0],
                                             sorted[3], sorted[1]});
  TermVector got = TermVector::FromSortedEntries(sorted);
  EXPECT_EQ(got.entries(), want.entries());
  EXPECT_EQ(got.norm(), want.norm());
  EXPECT_TRUE(TermVector::FromSortedEntries({}).empty());
}

TEST(TermVectorTest, NormMatchesEuclidean) {
  TermVector tv = TermVector::FromEntries({{0, 3.0}, {1, 4.0}});
  EXPECT_DOUBLE_EQ(tv.norm(), 5.0);
}

TEST(TermVectorTest, CosineIdenticalIsOne) {
  TermVector a = TermVector::FromTermIds({1, 2, 2, 3});
  EXPECT_NEAR(a.Cosine(a), 1.0, 1e-12);
  EXPECT_NEAR(a.CosineDistance(a), 0.0, 1e-12);
}

TEST(TermVectorTest, CosineOrthogonalIsZero) {
  TermVector a = TermVector::FromTermIds({1, 2});
  TermVector b = TermVector::FromTermIds({3, 4});
  EXPECT_DOUBLE_EQ(a.Cosine(b), 0.0);
  EXPECT_DOUBLE_EQ(a.CosineDistance(b), 1.0);
}

TEST(TermVectorTest, CosineSymmetric) {
  TermVector a = TermVector::FromEntries({{1, 2.0}, {2, 1.0}, {7, 0.5}});
  TermVector b = TermVector::FromEntries({{2, 3.0}, {7, 1.0}, {9, 2.0}});
  EXPECT_DOUBLE_EQ(a.Cosine(b), b.Cosine(a));
}

TEST(TermVectorTest, CosineHandComputed) {
  // a = (1,1), b = (1,0) over terms {5,6} → cos = 1/√2.
  TermVector a = TermVector::FromEntries({{5, 1.0}, {6, 1.0}});
  TermVector b = TermVector::FromEntries({{5, 1.0}});
  EXPECT_NEAR(a.Cosine(b), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(TermVectorTest, EmptyVectorCosineZero) {
  TermVector empty;
  TermVector a = TermVector::FromTermIds({1});
  EXPECT_DOUBLE_EQ(empty.Cosine(a), 0.0);
  EXPECT_DOUBLE_EQ(a.Cosine(empty), 0.0);
  EXPECT_DOUBLE_EQ(empty.Cosine(empty), 0.0);
}

TEST(TermVectorTest, DotLinearMerge) {
  TermVector a = TermVector::FromEntries({{1, 2.0}, {3, 1.0}, {5, 4.0}});
  TermVector b = TermVector::FromEntries({{3, 3.0}, {5, 0.5}, {7, 9.0}});
  EXPECT_DOUBLE_EQ(a.Dot(b), 1.0 * 3.0 + 4.0 * 0.5);
}

// -------------------------------------------------------------- Analyzer

TEST(AnalyzerTest, PipelineStopsAndStems) {
  Analyzer a;
  std::vector<std::string> toks =
      a.AnalyzeToStrings("The leopards are running in the canyons");
  EXPECT_EQ(toks, (std::vector<std::string>{"leopard", "run", "canyon"}));
}

TEST(AnalyzerTest, AnalyzeInternsTerms) {
  Analyzer a;
  std::vector<TermId> ids = a.Analyze("leopard tank");
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(a.vocabulary().term(ids[0]), "leopard");
  EXPECT_EQ(a.vocabulary().term(ids[1]), "tank");
}

TEST(AnalyzerTest, ReadOnlyDropsUnknownTerms) {
  Analyzer a;
  a.Analyze("leopard");
  std::vector<TermId> ids = a.AnalyzeReadOnly("leopard unicorn");
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(a.vocabulary().Lookup("unicorn"), kInvalidTermId);
}

TEST(AnalyzerTest, SameSurfaceFormsShareIds) {
  Analyzer a;
  std::vector<TermId> x = a.Analyze("connected");
  std::vector<TermId> y = a.Analyze("connection");
  ASSERT_EQ(x.size(), 1u);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_EQ(x[0], y[0]);
}

TEST(AnalyzerTest, OptionsDisableStemmingAndStopping) {
  Analyzer::Options opt;
  opt.remove_stopwords = false;
  opt.stem = false;
  Analyzer a(opt);
  std::vector<std::string> toks = a.AnalyzeToStrings("the running dogs");
  EXPECT_EQ(toks, (std::vector<std::string>{"the", "running", "dogs"}));
}

TEST(AnalyzerTest, AnalyzeToVectorCountsTf) {
  Analyzer a;
  TermVector tv = a.AnalyzeToVector("leopard leopard tank");
  TermId leopard = a.vocabulary().Lookup("leopard");
  TermId tank = a.vocabulary().Lookup("tank");
  EXPECT_DOUBLE_EQ(tv.WeightOf(leopard), 2.0);
  EXPECT_DOUBLE_EQ(tv.WeightOf(tank), 1.0);
}

/// An analyzer with `warm`'s options and vocabulary (same ids) but an
/// empty token memo: every token it analyzes takes the full stopword,
/// stem and vocabulary-lookup path.
Analyzer Fresh(const Analyzer& warm) {
  Analyzer fresh(warm.options());
  for (TermId id = 0; id < warm.vocabulary().size(); ++id) {
    fresh.vocabulary().GetOrAdd(warm.vocabulary().term(id));
  }
  return fresh;
}

TEST(AnalyzerTest, MemoWarmReadOnlyMatchesFreshAnalyzer) {
  const std::string indexed =
      "The leopards are running in the canyons; a Leopard tank was "
      "connected. Of and to s e y ies sses 2009 iPhone3GS " +
      std::string(80, 'z') + " generalizations";
  const std::vector<std::string> queries = {
      indexed,
      "the of and to a an",              // stopwords only
      "s e y ies sses ing ed",           // stem to short or empty forms
      "unicorn zebra quixotic",          // unknown tokens
      "leopard leopards LEOPARDING tanks connection",  // unknown raw
                                         // tokens with a known stem
      std::string(90, 'z') + " canyon",  // truncated to a memoized token
      "",
  };
  std::vector<Analyzer::Options> option_sets(4);
  option_sets[1].remove_stopwords = false;
  option_sets[2].stem = false;
  option_sets[3].remove_stopwords = false;
  option_sets[3].stem = false;
  for (size_t o = 0; o < option_sets.size(); ++o) {
    Analyzer warm(option_sets[o]);
    std::vector<TermId> first = warm.Analyze(indexed);
    // A second Analyze is served entirely from the memo.
    EXPECT_EQ(warm.Analyze(indexed), first) << "options " << o;
    Analyzer fresh = Fresh(warm);
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(warm.AnalyzeReadOnly(queries[q]),
                fresh.AnalyzeReadOnly(queries[q]))
          << "options " << o << " query " << q;
      std::vector<TermId> warm_ids, fresh_ids;
      warm.ForEachTokenId(queries[q], [&](std::string_view, TermId id) {
        warm_ids.push_back(id);
      });
      fresh.ForEachTokenId(queries[q], [&](std::string_view, TermId id) {
        fresh_ids.push_back(id);
      });
      EXPECT_EQ(warm_ids, fresh_ids) << "options " << o << " query " << q;
    }
    EXPECT_EQ(warm.AnalyzeToStrings(indexed),
              fresh.AnalyzeToStrings(indexed));
  }
}

TEST(AnalyzerTest, ForEachTokenIdMarksDroppedTokens) {
  Analyzer a;
  a.Analyze("leopard");
  std::vector<std::string> tokens;
  std::vector<TermId> ids;
  a.ForEachTokenId("The Leopard unicorn", [&](std::string_view t, TermId id) {
    tokens.emplace_back(t);
    ids.push_back(id);
  });
  EXPECT_EQ(tokens, (std::vector<std::string>{"the", "leopard", "unicorn"}));
  EXPECT_EQ(ids, (std::vector<TermId>{kInvalidTermId,
                                      a.vocabulary().Lookup("leopard"),
                                      kInvalidTermId}));
}

}  // namespace
}  // namespace text
}  // namespace optselect
