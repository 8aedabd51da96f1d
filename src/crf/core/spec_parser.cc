#include "crf/core/spec_parser.h"

#include <charconv>
#include <cmath>
#include <string>
#include <vector>

namespace crf {
namespace {

// Records the first (deepest) failure only: a nested parse error should not
// be overwritten by the enclosing max() reporting a generic failure.
void SetError(std::string* error, std::string_view message) {
  if (error != nullptr && error->empty()) {
    error->assign(message);
  }
}

std::string Quoted(std::string_view text) {
  return "'" + std::string(text) + "'";
}

// Strict finite-number parse. std::from_chars accepts "nan" and "inf", and a
// NaN passes every range check of the form (x < lo || x > hi) — it would
// sail through here and abort in the predictor constructor's CHECK instead —
// so non-finite values are rejected explicitly.
bool ParseFiniteNumber(std::string_view text, std::string_view what, double& out,
                       std::string* error) {
  if (text.empty()) {
    SetError(error, std::string(what) + " is empty");
    return false;
  }
  const auto result = std::from_chars(text.data(), text.data() + text.size(), out);
  if (result.ec == std::errc::result_out_of_range) {
    SetError(error, std::string(what) + " " + Quoted(text) + " overflows a double");
    return false;
  }
  if (result.ec != std::errc() || result.ptr != text.data() + text.size()) {
    SetError(error, std::string(what) + " " + Quoted(text) + " is not a number");
    return false;
  }
  if (!std::isfinite(out)) {
    SetError(error, std::string(what) + " " + Quoted(text) + " is not finite");
    return false;
  }
  return true;
}

// Splits "a,b,max(c,d)" on top-level commas only.
std::optional<std::vector<std::string_view>> SplitTopLevel(std::string_view text,
                                                           std::string* error) {
  std::vector<std::string_view> parts;
  int depth = 0;
  size_t start = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '(') {
      ++depth;
    } else if (text[i] == ')') {
      if (--depth < 0) {
        SetError(error, "unbalanced ')' in " + Quoted(text));
        return std::nullopt;
      }
    } else if (text[i] == ',' && depth == 0) {
      parts.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  if (depth != 0) {
    SetError(error, "unbalanced '(' in " + Quoted(text));
    return std::nullopt;
  }
  parts.push_back(text.substr(start));
  return parts;
}

std::optional<PredictorSpec> Parse(std::string_view text, std::string* error, int depth);

std::optional<PredictorSpec> ParseSimple(std::string_view text, std::string* error) {
  // name[:arg1[:arg2]]
  std::vector<std::string_view> fields;
  size_t start = 0;
  while (true) {
    const size_t colon = text.find(':', start);
    if (colon == std::string_view::npos) {
      fields.push_back(text.substr(start));
      break;
    }
    fields.push_back(text.substr(start, colon - start));
    start = colon + 1;
  }
  const std::string_view name = fields[0];
  const size_t args = fields.size() - 1;

  if (name == "limit-sum") {
    if (args != 0) {
      SetError(error, "limit-sum takes no parameters");
      return std::nullopt;
    }
    return LimitSumSpec();
  }
  if (name == "borg-default") {
    double phi = 0.9;
    if (args > 1) {
      SetError(error, "borg-default takes at most one parameter (phi)");
      return std::nullopt;
    }
    if (args == 1 && !ParseFiniteNumber(fields[1], "borg-default phi", phi, error)) {
      return std::nullopt;
    }
    if (phi <= 0.0 || phi > 1.0) {
      SetError(error, "borg-default phi " + Quoted(fields[1]) + " must be in (0, 1]");
      return std::nullopt;
    }
    return BorgDefaultSpec(phi);
  }
  if (name == "rc-like") {
    double percentile = 99.0;
    if (args > 1) {
      SetError(error, "rc-like takes at most one parameter (percentile)");
      return std::nullopt;
    }
    if (args == 1 && !ParseFiniteNumber(fields[1], "rc-like percentile", percentile, error)) {
      return std::nullopt;
    }
    if (percentile < 0.0 || percentile > 100.0) {
      SetError(error,
               "rc-like percentile " + Quoted(fields[1]) + " must be in [0, 100]");
      return std::nullopt;
    }
    return RcLikeSpec(percentile);
  }
  if (name == "n-sigma") {
    double n = 5.0;
    if (args > 1) {
      SetError(error, "n-sigma takes at most one parameter (n)");
      return std::nullopt;
    }
    if (args == 1 && !ParseFiniteNumber(fields[1], "n-sigma n", n, error)) {
      return std::nullopt;
    }
    if (n <= 0.0) {
      SetError(error, "n-sigma n " + Quoted(fields[1]) + " must be positive");
      return std::nullopt;
    }
    return NSigmaSpec(n);
  }
  if (name == "autopilot") {
    double percentile = 98.0;
    double margin = 1.10;
    if (args > 2) {
      SetError(error, "autopilot takes at most two parameters (percentile, margin)");
      return std::nullopt;
    }
    if (args >= 1 &&
        !ParseFiniteNumber(fields[1], "autopilot percentile", percentile, error)) {
      return std::nullopt;
    }
    if (args == 2 && !ParseFiniteNumber(fields[2], "autopilot margin", margin, error)) {
      return std::nullopt;
    }
    if (percentile < 0.0 || percentile > 100.0) {
      SetError(error,
               "autopilot percentile " + Quoted(fields[1]) + " must be in [0, 100]");
      return std::nullopt;
    }
    if (margin < 1.0) {
      SetError(error, "autopilot margin " + Quoted(fields[2]) + " must be >= 1");
      return std::nullopt;
    }
    return AutopilotSpec(percentile, margin);
  }
  if (name == "chance") {
    double target = 0.01;
    if (args > 1) {
      SetError(error, "chance takes at most one parameter (target)");
      return std::nullopt;
    }
    if (args == 1 && !ParseFiniteNumber(fields[1], "chance target", target, error)) {
      return std::nullopt;
    }
    if (target <= 0.0 || target >= 1.0) {
      SetError(error, "chance target " + Quoted(fields[1]) + " must be in (0, 1)");
      return std::nullopt;
    }
    return ChanceSpec(target);
  }
  if (name == "flex") {
    double percentile = 95.0;
    double margin = 1.2;
    if (args > 2) {
      SetError(error, "flex takes at most two parameters (percentile, margin)");
      return std::nullopt;
    }
    if (args >= 1 && !ParseFiniteNumber(fields[1], "flex percentile", percentile, error)) {
      return std::nullopt;
    }
    if (args == 2 && !ParseFiniteNumber(fields[2], "flex margin", margin, error)) {
      return std::nullopt;
    }
    if (percentile < 0.0 || percentile > 100.0) {
      SetError(error, "flex percentile " + Quoted(fields[1]) + " must be in [0, 100]");
      return std::nullopt;
    }
    if (margin < 1.0) {
      SetError(error, "flex margin " + Quoted(fields[2]) + " must be >= 1");
      return std::nullopt;
    }
    return FlexSpec(percentile, margin);
  }
  SetError(error, "unknown predictor " + Quoted(name) +
                      " (expected limit-sum, borg-default, rc-like, n-sigma, autopilot, "
                      "chance, flex, or max(...))");
  return std::nullopt;
}

// `depth` is the number of enclosing max(). The depth limit is checked
// while parsing, so deep nesting cannot exhaust the stack; the component
// total is left to ValidatePredictorSpec on the finished spec.
std::optional<PredictorSpec> Parse(std::string_view text, std::string* error, int depth) {
  if (text.empty()) {
    SetError(error, "empty predictor spec");
    return std::nullopt;
  }
  if (depth > kMaxSpecDepth) {
    SetError(error, "max() nesting deeper than " + std::to_string(kMaxSpecDepth));
    return std::nullopt;
  }
  if (text.starts_with("max(") && text.ends_with(")")) {
    const std::string_view inner = text.substr(4, text.size() - 5);
    const auto parts = SplitTopLevel(inner, error);
    if (!parts.has_value()) {
      return std::nullopt;
    }
    std::vector<PredictorSpec> components;
    for (const std::string_view part : *parts) {
      if (part.empty()) {
        SetError(error, "empty component in " + Quoted(text));
        return std::nullopt;
      }
      auto component = Parse(part, error, depth + 1);
      if (!component.has_value()) {
        return std::nullopt;
      }
      components.push_back(std::move(*component));
    }
    return MaxSpec(std::move(components));
  }
  return ParseSimple(text, error);
}

}  // namespace

std::optional<PredictorSpec> ParsePredictorSpec(std::string_view text, std::string* error) {
  auto spec = Parse(text, error, 0);
  std::string invalid;
  if (spec.has_value() && !ValidatePredictorSpec(*spec, &invalid)) {
    SetError(error, invalid);
    spec.reset();
  }
  if (!spec.has_value()) {
    SetError(error, "bad predictor spec " + Quoted(text));  // Fallback reason.
  }
  return spec;
}

std::optional<PredictorSpec> ParsePredictorSpec(std::string_view text) {
  return ParsePredictorSpec(text, nullptr);
}

}  // namespace crf
