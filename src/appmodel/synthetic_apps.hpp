// Canned realistic applications — the workload classes the paper's
// introduction motivates (face recognition, interactive games / AR,
// video analytics). Used by examples and integration tests; each
// mirrors a published partitioning case study in structure: UI and
// sensor functions pinned to the device, a compute-heavy middle
// pipeline worth offloading, and chatty helper clusters that the
// compressor should fuse.
#pragma once

#include "appmodel/application.hpp"

namespace mecoff::appmodel {

/// Face-recognition pipeline: camera/UI pinned local; detection,
/// alignment, embedding and matching offloadable; tight coupling inside
/// the embedding cluster. ~18 functions, 2 components.
[[nodiscard]] Application make_face_recognition_app();

/// AR game: input/render loop pinned; physics, pathfinding and world
/// sync offloadable; physics functions are highly coupled (the paper's
/// "highly coupled functions" case).
[[nodiscard]] Application make_ar_game_app();

/// Video analytics: frame grab pinned; per-stage filters loosely
/// coupled in a long chain (the "loosely coupled" case).
[[nodiscard]] Application make_video_analytics_app();

/// Voice assistant: wake-word detection pinned (always-on mic), ASR /
/// NLU / TTS stages offloadable with a tightly coupled decoder cluster.
[[nodiscard]] Application make_voice_assistant_app();

}  // namespace mecoff::appmodel
