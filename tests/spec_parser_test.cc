#include "crf/core/spec_parser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace crf {
namespace {

// max() nested `depth` levels around one n-sigma leaf.
std::string Nested(int depth) {
  std::string text;
  for (int i = 0; i < depth; ++i) {
    text += "max(";
  }
  text += "n-sigma:3";
  return text + std::string(static_cast<size_t>(depth), ')');
}

// max() of `width` borg-default components.
std::string Wide(int width) {
  std::string text = "max(";
  for (int i = 0; i < width; ++i) {
    text += i > 0 ? ",borg-default" : "borg-default";
  }
  return text + ")";
}

std::string NameOf(std::string_view text) {
  const auto spec = ParsePredictorSpec(text);
  return spec.has_value() ? spec->Name() : "<error>";
}

TEST(SpecParserTest, SimpleSpecs) {
  EXPECT_EQ(NameOf("limit-sum"), "limit-sum");
  EXPECT_EQ(NameOf("borg-default"), "borg-default-0.90");
  EXPECT_EQ(NameOf("borg-default:0.85"), "borg-default-0.85");
  EXPECT_EQ(NameOf("rc-like"), "rc-like-p99");
  EXPECT_EQ(NameOf("rc-like:95"), "rc-like-p95");
  EXPECT_EQ(NameOf("n-sigma:3"), "n-sigma-3");
  EXPECT_EQ(NameOf("autopilot"), "autopilot-p98-m1.10");
  EXPECT_EQ(NameOf("autopilot:95:1.2"), "autopilot-p95-m1.20");
  EXPECT_EQ(NameOf("chance"), "chance-e0.01");
  EXPECT_EQ(NameOf("chance:0.05"), "chance-e0.05");
  EXPECT_EQ(NameOf("flex"), "flex-p95-m1.2");
  EXPECT_EQ(NameOf("flex:90"), "flex-p90-m1.2");
  EXPECT_EQ(NameOf("flex:90:1.5"), "flex-p90-m1.5");
}

TEST(SpecParserTest, MaxComposition) {
  EXPECT_EQ(NameOf("max(n-sigma:5,rc-like:99)"), "max(n-sigma-5,rc-like-p99)");
  EXPECT_EQ(NameOf("max(borg-default:0.9,autopilot:98:1.1)"),
            "max(borg-default-0.90,autopilot-p98-m1.10)");
  EXPECT_EQ(NameOf("max(chance:0.02,flex:95:1.2)"), "max(chance-e0.02,flex-p95-m1.2)");
}

TEST(SpecParserTest, NestedMax) {
  EXPECT_EQ(NameOf("max(max(n-sigma:2,n-sigma:3),rc-like:80)"),
            "max(max(n-sigma-2,n-sigma-3),rc-like-p80)");
}

TEST(SpecParserTest, PaperConfigsRoundTrip) {
  EXPECT_EQ(NameOf("max(n-sigma:5,rc-like:99)"), SimulationMaxSpec().Name());
  EXPECT_EQ(NameOf("max(n-sigma:3,rc-like:80)"), ProductionMaxSpec().Name());
}

TEST(SpecParserTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "unknown", "borg-default:abc", "borg-default:1.5", "borg-default:0",
        "rc-like:150", "n-sigma:-2", "autopilot:98:0.5", "max()", "max(",
        "max(n-sigma:5", "max(n-sigma:5,)", "max(bogus)", "limit-sum:1",
        "rc-like:90:1", "n-sigma:5:5", "chance:0", "chance:1", "chance:-0.1",
        "chance:1.5", "chance:0.01:0.02", "flex:101", "flex:-1", "flex:95:0.9",
        "flex:95:1.2:3"}) {
    EXPECT_FALSE(ParsePredictorSpec(bad).has_value()) << bad;
  }
  // Past the size limits SweepPlan and the checkpoint reader share: one
  // level too deep, one component too many (in one max() or across the
  // tree), and nesting deep enough to overflow a recursive parser's stack.
  std::string split = "max(" + Wide(40) + "," + Wide(30) + ")";
  for (const std::string& bad : {Nested(kMaxSpecDepth + 1), Nested(10), Wide(65), Wide(70),
                                 split, Nested(25000)}) {
    EXPECT_FALSE(ParsePredictorSpec(bad).has_value()) << bad.substr(0, 80);
  }
  // The limits themselves are accepted, and every accepted spec runs.
  for (const std::string& edge :
       {Nested(kMaxSpecDepth), Wide(kMaxSpecComponents), "max(" + Wide(32) + "," + Wide(30) + ")"}) {
    const auto spec = ParsePredictorSpec(edge);
    ASSERT_TRUE(spec.has_value()) << edge;
    EXPECT_TRUE(ValidatePredictorSpec(*spec, nullptr)) << edge;
    EXPECT_FALSE(CreatePredictor(*spec)->name().empty());
  }
}

// The parser must reject every value the predictor constructors would
// CHECK-abort on — nan/inf sail through (x < lo || x > hi) range tests, so
// they need explicit rejection — plus empty and overflowing numbers.
TEST(SpecParserTest, RejectsNonFiniteAndOverflowingParameters) {
  for (const char* bad :
       {"rc-like:nan", "rc-like:-nan", "n-sigma:inf", "n-sigma:-inf", "autopilot:nan",
        "autopilot:98:inf", "borg-default:nan", "borg-default:1e999", "n-sigma:1e999",
        "rc-like:", "n-sigma:", "borg-default:", "autopilot:", "autopilot:98:",
        "chance:nan", "chance:inf", "chance:", "flex:nan", "flex:95:inf", "flex:",
        "max(rc-like:nan)", "max(n-sigma:5,autopilot:inf)"}) {
    EXPECT_FALSE(ParsePredictorSpec(bad).has_value()) << bad;
  }
}

TEST(SpecParserTest, ReportsPreciseErrors) {
  const auto error_for = [](std::string_view text) {
    std::string error;
    EXPECT_FALSE(ParsePredictorSpec(text, &error).has_value()) << text;
    return error;
  };
  EXPECT_EQ(error_for(""), "empty predictor spec");
  EXPECT_EQ(error_for("limit-sum:1"), "limit-sum takes no parameters");
  EXPECT_EQ(error_for("borg-default:abc"), "borg-default phi 'abc' is not a number");
  EXPECT_EQ(error_for("borg-default:1e999"), "borg-default phi '1e999' overflows a double");
  EXPECT_EQ(error_for("borg-default:1.5"), "borg-default phi '1.5' must be in (0, 1]");
  EXPECT_EQ(error_for("rc-like:nan"), "rc-like percentile 'nan' is not finite");
  EXPECT_EQ(error_for("rc-like:150"), "rc-like percentile '150' must be in [0, 100]");
  EXPECT_EQ(error_for("rc-like:"), "rc-like percentile is empty");
  EXPECT_EQ(error_for("n-sigma:inf"), "n-sigma n 'inf' is not finite");
  EXPECT_EQ(error_for("n-sigma:-2"), "n-sigma n '-2' must be positive");
  EXPECT_EQ(error_for("n-sigma:5:5"), "n-sigma takes at most one parameter (n)");
  EXPECT_EQ(error_for("autopilot:98:0.5"), "autopilot margin '0.5' must be >= 1");
  EXPECT_EQ(error_for("autopilot:101"), "autopilot percentile '101' must be in [0, 100]");
  EXPECT_EQ(error_for("autopilot:1:2:3"),
            "autopilot takes at most two parameters (percentile, margin)");
  EXPECT_EQ(error_for("chance:0"), "chance target '0' must be in (0, 1)");
  EXPECT_EQ(error_for("chance:1"), "chance target '1' must be in (0, 1)");
  EXPECT_EQ(error_for("chance:nan"), "chance target 'nan' is not finite");
  EXPECT_EQ(error_for("chance:0.01:0.02"), "chance takes at most one parameter (target)");
  EXPECT_EQ(error_for("flex:101"), "flex percentile '101' must be in [0, 100]");
  EXPECT_EQ(error_for("flex:95:0.9"), "flex margin '0.9' must be >= 1");
  EXPECT_EQ(error_for("flex:95:1.2:3"),
            "flex takes at most two parameters (percentile, margin)");
  EXPECT_EQ(error_for("max()"), "empty component in 'max()'");
  EXPECT_EQ(error_for("max(n-sigma:5,)"), "empty component in 'max(n-sigma:5,)'");
  EXPECT_EQ(error_for(Nested(9)), "max() nesting deeper than 8");
  EXPECT_EQ(error_for(Wide(70)), "more than 64 components");
  EXPECT_EQ(error_for("max(a,b))"), "unbalanced ')' in 'a,b)'");
  // A nested failure surfaces the deepest diagnostic, not a generic one.
  EXPECT_EQ(error_for("max(n-sigma:5,rc-like:nan)"), "rc-like percentile 'nan' is not finite");
  EXPECT_TRUE(error_for("bogus").starts_with("unknown predictor 'bogus'"))
      << error_for("bogus");
}

// Fuzz-style totality sweep: pseudo-random strings over the spec alphabet
// must never crash or CHECK-abort — each either parses into a spec that
// ValidatePredictorSpec accepts (so SweepPlan will not abort on it) or
// reports a non-empty error.
TEST(SpecParserTest, ArbitraryInputNeverCrashes) {
  const char alphabet[] = "abcdefghijklmnopqrstuvwxyz-:,().0123456789einfa";
  // Half the inputs are pure noise; half mutate a real spec (every family
  // represented) so near-valid strings get exercised, not just uniform junk.
  const std::string deep = Nested(kMaxSpecDepth);
  const std::string wide = Wide(kMaxSpecComponents);
  const char* seeds[] = {"limit-sum",     "borg-default:0.9", "rc-like:95",
                         "n-sigma:3",     "autopilot:98:1.1", "chance:0.02",
                         "flex:95:1.2",   "max(chance:0.01,flex:90)",
                         deep.c_str(),    wide.c_str()};
  uint64_t state = 0x12345678u;
  const auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<size_t>(state >> 33);
  };
  for (int i = 0; i < 5000; ++i) {
    std::string text;
    if (i % 2 == 0) {
      const size_t length = next() % 24;
      for (size_t k = 0; k < length; ++k) {
        text += alphabet[next() % (sizeof(alphabet) - 1)];
      }
    } else {
      text = seeds[next() % (sizeof(seeds) / sizeof(seeds[0]))];
      const size_t mutations = 1 + next() % 3;
      for (size_t k = 0; k < mutations && !text.empty(); ++k) {
        text[next() % text.size()] = alphabet[next() % (sizeof(alphabet) - 1)];
      }
    }
    std::string error;
    const auto spec = ParsePredictorSpec(text, &error);
    if (spec.has_value()) {
      EXPECT_TRUE(ValidatePredictorSpec(*spec, &error)) << text << ": " << error;
    } else {
      EXPECT_FALSE(error.empty()) << text;
    }
  }
}

TEST(SpecParserTest, ParsedSpecsUsePaperWindows) {
  const auto spec = ParsePredictorSpec("rc-like:95");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->config.min_num_samples, 2 * kIntervalsPerHour);
  EXPECT_EQ(spec->config.max_num_samples, 10 * kIntervalsPerHour);
}

}  // namespace
}  // namespace crf
