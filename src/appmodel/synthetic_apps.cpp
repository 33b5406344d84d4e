#include "appmodel/synthetic_apps.hpp"

#include <string>

namespace mecoff::appmodel {

namespace {

/// Shorthand builder: declare a function and return its index.
std::size_t fn(Application& app, const std::string& name, double compute,
               const std::string& component, bool pinned = false) {
  FunctionInfo info;
  info.name = name;
  info.computation = compute;
  info.component = component;
  info.unoffloadable = pinned;
  return app.add_function(std::move(info));
}

}  // namespace

Application make_face_recognition_app() {
  Application app("face_recognition");

  // UI component — pinned to the device.
  const auto main_loop = fn(app, "main_loop", 4, "ui", true);
  const auto camera = fn(app, "camera_capture", 6, "ui", true);
  const auto preview = fn(app, "render_preview", 8, "ui", true);
  const auto gallery = fn(app, "gallery_view", 5, "ui", true);

  // Vision component — the offloadable pipeline.
  const auto preprocess = fn(app, "preprocess_frame", 30, "vision");
  const auto detect = fn(app, "detect_faces", 120, "vision");
  const auto landmarks = fn(app, "locate_landmarks", 90, "vision");
  const auto align = fn(app, "align_face", 45, "vision");
  // Tightly coupled embedding cluster (conv stages share activations).
  const auto conv1 = fn(app, "embed_conv1", 160, "vision");
  const auto conv2 = fn(app, "embed_conv2", 170, "vision");
  const auto conv3 = fn(app, "embed_conv3", 150, "vision");
  const auto pool_fc = fn(app, "embed_fc", 80, "vision");

  // Matching component.
  const auto normalize = fn(app, "normalize_vec", 10, "match");
  const auto search = fn(app, "search_index", 140, "match");
  const auto rank = fn(app, "rank_candidates", 35, "match");
  const auto decide = fn(app, "decide_match", 12, "match");
  const auto log_event = fn(app, "log_event", 3, "match");
  const auto notify = fn(app, "notify_ui", 2, "match");

  // Data flow. Camera frames are big; inter-cluster features small.
  app.add_exchange(main_loop, camera, 2);
  app.add_exchange(camera, preprocess, 48);   // raw frame
  app.add_exchange(preprocess, detect, 40);
  app.add_exchange(detect, landmarks, 12);
  app.add_exchange(landmarks, align, 10);
  app.add_exchange(align, conv1, 14);
  app.add_exchange(conv1, conv2, 96);         // huge activations: keep fused
  app.add_exchange(conv2, conv3, 96);
  app.add_exchange(conv3, pool_fc, 64);
  app.add_exchange(pool_fc, normalize, 2);    // tiny embedding
  app.add_exchange(normalize, search, 2);
  app.add_exchange(search, rank, 6);
  app.add_exchange(rank, decide, 2);
  app.add_exchange(decide, notify, 1);
  app.add_exchange(notify, preview, 1);
  app.add_exchange(decide, log_event, 1);
  app.add_exchange(main_loop, gallery, 3);
  app.add_exchange(gallery, search, 4);
  return app;
}

Application make_ar_game_app() {
  Application app("ar_game");

  const auto input = fn(app, "input_poll", 3, "loop", true);
  const auto render = fn(app, "render_frame", 25, "loop", true);
  const auto sensors = fn(app, "imu_read", 4, "loop", true);
  const auto tick = fn(app, "game_tick", 8, "loop", true);

  // Physics — highly coupled: big shared state every step.
  const auto broad = fn(app, "phys_broadphase", 70, "physics");
  const auto narrow = fn(app, "phys_narrowphase", 110, "physics");
  const auto solve = fn(app, "phys_solver", 160, "physics");
  const auto integrate = fn(app, "phys_integrate", 60, "physics");

  // AI — moderately coupled.
  const auto path = fn(app, "ai_pathfind", 130, "ai");
  const auto plan = fn(app, "ai_plan", 90, "ai");
  const auto steer = fn(app, "ai_steering", 40, "ai");

  // World sync — loose.
  const auto delta = fn(app, "world_delta", 25, "sync");
  const auto compress = fn(app, "delta_compress", 45, "sync");
  const auto net_send = fn(app, "net_send", 6, "sync");

  app.add_exchange(input, tick, 1);
  app.add_exchange(sensors, tick, 2);
  app.add_exchange(tick, broad, 18);
  app.add_exchange(broad, narrow, 80);   // contact pairs: heavy
  app.add_exchange(narrow, solve, 85);
  app.add_exchange(solve, integrate, 75);
  app.add_exchange(integrate, tick, 12); // pose updates back to loop
  app.add_exchange(tick, path, 6);
  app.add_exchange(path, plan, 30);
  app.add_exchange(plan, steer, 8);
  app.add_exchange(steer, tick, 3);
  app.add_exchange(tick, delta, 10);
  app.add_exchange(delta, compress, 35);
  app.add_exchange(compress, net_send, 4);
  app.add_exchange(tick, render, 14);
  return app;
}

Application make_video_analytics_app() {
  Application app("video_analytics");

  const auto grab = fn(app, "frame_grab", 5, "capture", true);
  const auto display = fn(app, "overlay_display", 9, "capture", true);

  // Long loosely-coupled filter chain: every stage exchanges a modest
  // frame-sized payload with the next only.
  const char* stages[] = {"decode",  "denoise", "stabilize", "resize",
                          "detect",  "track",   "classify",  "annotate"};
  const double compute[] = {60, 85, 95, 25, 150, 70, 130, 20};
  std::vector<std::size_t> chain;
  for (std::size_t i = 0; i < std::size(stages); ++i)
    chain.push_back(fn(app, stages[i], compute[i], "pipeline"));

  app.add_exchange(grab, chain.front(), 20);
  for (std::size_t i = 1; i < chain.size(); ++i)
    app.add_exchange(chain[i - 1], chain[i], 8);  // loose coupling
  app.add_exchange(chain.back(), display, 4);

  // Side analytics with its own small cluster.
  const auto stats = fn(app, "stats_aggregate", 30, "analytics");
  const auto alert = fn(app, "alert_engine", 22, "analytics");
  const auto store = fn(app, "store_results", 15, "analytics");
  app.add_exchange(chain[5], stats, 5);
  app.add_exchange(stats, alert, 18);
  app.add_exchange(alert, store, 16);
  return app;
}

Application make_voice_assistant_app() {
  Application app("voice_assistant");

  // Always-on front end — pinned.
  const auto mic = fn(app, "mic_capture", 3, "frontend", true);
  const auto wake = fn(app, "wake_word", 25, "frontend", true);
  const auto speaker = fn(app, "audio_out", 4, "frontend", true);

  // ASR — the decoder stages share big lattices (tightly coupled).
  const auto features = fn(app, "acoustic_features", 35, "asr");
  const auto am_score = fn(app, "acoustic_model", 220, "asr");
  const auto decode1 = fn(app, "decoder_pass1", 180, "asr");
  const auto decode2 = fn(app, "decoder_rescore", 140, "asr");

  // NLU + response — loose chain.
  const auto intent = fn(app, "intent_classify", 90, "nlu");
  const auto entities = fn(app, "entity_extract", 70, "nlu");
  const auto dialog = fn(app, "dialog_policy", 40, "nlu");
  const auto tts = fn(app, "tts_synthesize", 160, "nlu");

  app.add_exchange(mic, wake, 6);
  app.add_exchange(wake, features, 24);   // audio window
  app.add_exchange(features, am_score, 30);
  app.add_exchange(am_score, decode1, 110);  // frame posteriors: huge
  app.add_exchange(decode1, decode2, 95);    // lattices: huge
  app.add_exchange(decode2, intent, 2);      // text: tiny
  app.add_exchange(intent, entities, 3);
  app.add_exchange(entities, dialog, 2);
  app.add_exchange(dialog, tts, 2);
  app.add_exchange(tts, speaker, 18);        // synthesized audio
  return app;
}

}  // namespace mecoff::appmodel
