// Textual predictor specifications, for CLI/tooling use.
//
// Grammar (whitespace-free):
//   spec      := simple | "max(" spec ("," spec)* ")"
//   simple    := "limit-sum"
//              | "borg-default" [":" phi]
//              | "rc-like" [":" percentile]
//              | "n-sigma" [":" n]
//              | "autopilot" [":" percentile [":" margin]]
//              | "chance" [":" target]
//              | "flex" [":" percentile [":" margin]]
// max() nests at most kMaxSpecDepth deep and a spec holds at most
// kMaxSpecComponents components in total (predictor_factory.h) — the limits
// SweepPlan and the checkpoint reader share, so every parsed spec runs and
// checkpoints.
// Examples: "borg-default:0.9", "max(n-sigma:3,rc-like:80)", "autopilot:98:1.15".
//
// Warm-up and history windows are not part of the string; callers set them
// on the returned spec (defaults: 2h / 10h, the paper's values).
//
// The parser is total over arbitrary input: malformed specs — including
// empty strings, unknown predictor names, surplus parameters, non-numeric,
// non-finite (nan/inf), or overflowing values, unbalanced parentheses, and
// specs past the size limits —
// yield nullopt plus a precise diagnostic, never a crash or a downstream
// CHECK failure (every range constraint the predictor constructors enforce
// is validated here first).

#ifndef CRF_CORE_SPEC_PARSER_H_
#define CRF_CORE_SPEC_PARSER_H_

#include <optional>
#include <string>
#include <string_view>

#include "crf/core/predictor_factory.h"

namespace crf {

// Parses a predictor spec; nullopt on malformed input. When `error` is
// non-null, a failed parse stores a human-readable reason (the first —
// deepest — failure encountered).
std::optional<PredictorSpec> ParsePredictorSpec(std::string_view text, std::string* error);
std::optional<PredictorSpec> ParsePredictorSpec(std::string_view text);

}  // namespace crf

#endif  // CRF_CORE_SPEC_PARSER_H_
