// App-description DSL — the front end standing in for Soot. Example:
//
//   app FaceRecognition
//   component ui
//     function main      compute=5  unoffloadable
//     function render    compute=8  unoffloadable
//   component vision
//     function detect    compute=120
//     function embed     compute=200
//   call main   detect data=64
//   call detect embed  data=32
//
// Grammar (one statement per line, '#' starts a comment):
//   app <name>                     (optional; before the first function)
//   component <name>
//   function <name> [compute=<x>] [unoffloadable]
//   call <fn-a> <fn-b> data=<x>
//
// Functions belong to the most recent `component` (or "" before any;
// `component -` resets back to the anonymous component).
// `call` accepts forward references only to already-declared functions,
// keeping diagnostics simple; declare all functions first.
#pragma once

#include <string>
#include <string_view>

#include "appmodel/application.hpp"
#include "common/result.hpp"

namespace mecoff::appmodel {

/// Parse DSL text in one pass over the bytes (token rules:
/// docs/formats.md). Errors carry the offending line number.
[[nodiscard]] Result<Application> parse_app_dsl(std::string_view text);

/// Serialize an Application back to DSL (round-trips through the parser).
[[nodiscard]] std::string to_app_dsl(const Application& app);

}  // namespace mecoff::appmodel
