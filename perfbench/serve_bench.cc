// The serve-resubmit workload: an in-process GauntletServer on a unix
// socket and one closed-loop client that submits the source text of every
// generated program, then resubmits all of them in the same order.
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <regex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/common.h"
#include "src/dist/serve.h"
#include "src/frontend/parser.h"
#include "src/frontend/printer.h"
#include "src/gen/generator.h"
#include "src/runtime/parallel_campaign.h"

namespace perfbench {
namespace {

using gauntlet::TraceNowMicros;

// One server session: started on construction, its accept loop on a thread
// of this process; Finish() asks it to shut down and joins the thread.
class ServeSession {
 public:
  ServeSession(const std::string& socket_path, gauntlet::CampaignOptions campaign)
      : server_(MakeOptions(socket_path, std::move(campaign)), gauntlet::BugConfig{}) {
    server_.Start();
    thread_ = std::thread([this]() {
      try {
        server_.Run();
      } catch (...) {
        error_ = std::current_exception();
      }
    });
  }
  ~ServeSession() {
    if (thread_.joinable()) {
      try {
        gauntlet::SendServeRequest(server_.socket_path(), gauntlet::BuildShutdownPayload());
      } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: shutting the server down failed: %s\n", error.what());
      }
      thread_.join();
    }
  }
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  const std::string& socket_path() const { return server_.socket_path(); }

  // Shuts the server down; its report and sinks are final afterwards.
  const gauntlet::CampaignReport& Finish() {
    gauntlet::SendServeRequest(server_.socket_path(), gauntlet::BuildShutdownPayload());
    thread_.join();
    if (error_ != nullptr) {
      std::rethrow_exception(error_);
    }
    return server_.report();
  }

 private:
  static gauntlet::ServeOptions MakeOptions(const std::string& socket_path,
                                            gauntlet::CampaignOptions campaign) {
    gauntlet::ServeOptions options;
    options.socket_path = socket_path;
    options.campaign = std::move(campaign);
    return options;
  }

  gauntlet::GauntletServer server_;
  std::exception_ptr error_;
  std::thread thread_;  // declared last: it runs against the members above
};

struct ServeInputs {
  std::vector<std::string> texts;   // PrintProgram of each generated program
  std::vector<int> order;           // submission order, from the order seed
  std::vector<double> generate_ms;  // ProgramGenerator::Generate per program
};

ServeInputs MakeInputs(const BenchConfig& config) {
  ServeInputs inputs;
  // The same program stream a campaign with this seed tests.
  const gauntlet::GeneratorOptions base =
      gauntlet::Campaign(BaseCampaignOptions()).EffectiveGeneratorOptions();
  for (int i = 0; i < config.programs; ++i) {
    gauntlet::GeneratorOptions options = base;
    options.seed = gauntlet::ParallelCampaign::ProgramSeed(config.campaign_seed, i);
    const double start = MonotonicSeconds();
    const gauntlet::ProgramPtr program = gauntlet::ProgramGenerator(options).Generate();
    inputs.generate_ms.push_back((MonotonicSeconds() - start) * 1000.0);
    inputs.texts.push_back(gauntlet::PrintProgram(*program));
  }
  inputs.order = Permutation(config.programs, config.order_seed);
  return inputs;
}

// A response with its per-session request counter blanked, so a
// resubmission's answer compares equal to the first submission's.
std::string WithoutProgramIndex(const std::string& response) {
  static const std::regex kIndex("\"program_index\":[0-9]+");
  return std::regex_replace(response, kIndex, "\"program_index\":_");
}

struct StreamResult {
  RepTiming timing;
  std::vector<std::string> responses;  // both passes, in submission order
  std::vector<ProgramInterval> intervals;
  double round_trip_ms = 0;
};

// Both passes over the inputs against one session, each request timed from
// send to answer on the trace clock (the server records its events in
// trace buffer 0).
StreamResult RunStream(ServeSession& session, const ServeInputs& inputs) {
  StreamResult stream;
  const size_t count = inputs.order.size();
  const double cpu_start = ProcessCpuSeconds();
  const uint64_t start = TraceNowMicros();
  uint64_t last_done = start;
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t position = 0; position < count; ++position) {
      const std::string& text = inputs.texts[static_cast<size_t>(inputs.order[position])];
      const uint64_t send = TraceNowMicros();
      stream.responses.push_back(gauntlet::SendServeRequest(
          session.socket_path(), gauntlet::BuildSubmitPayload(text, {}, {})));
      last_done = TraceNowMicros();
      const double round_trip_ms = static_cast<double>(last_done - send) / 1000.0;
      stream.timing.unit_ms.push_back(round_trip_ms);
      stream.round_trip_ms += round_trip_ms;
      stream.intervals.push_back({static_cast<int>(pass * count + position), 0, send, last_done});
    }
  }
  const uint64_t end = TraceNowMicros();
  stream.timing.cpu_s = ProcessCpuSeconds() - cpu_start;
  stream.timing.wall_s = static_cast<double>(end - start) * 1e-6;
  stream.timing.busy_ratio = stream.round_trip_ms / 1000.0 / stream.timing.wall_s;
  stream.timing.tail_idle_s = static_cast<double>(end - last_done) * 1e-6;
  return stream;
}

// Parser::ParseString on every input text, in ms; outside any stream, so
// it never adds to a timed repetition.
double ParseMs(const ServeInputs& inputs) {
  const uint64_t start = TraceNowMicros();
  for (const std::string& text : inputs.texts) {
    gauntlet::Parser::ParseString(text);
  }
  return static_cast<double>(TraceNowMicros() - start) / 1000.0;
}

// The serve gate: every answer "ok" with no findings (no faults are
// seeded), and every resubmission answered exactly like its first
// submission. Returns the number of failed requests.
int64_t CheckResponses(const std::vector<std::string>& responses,
                       std::vector<std::string>& errors) {
  int64_t failed = 0;
  const size_t count = responses.size() / 2;
  for (size_t i = 0; i < responses.size(); ++i) {
    const std::string& response = responses[i];
    std::string problem;
    if (response.find("\"status\":\"ok\"") == std::string::npos) {
      problem = "status is not ok";
    } else if (response.find("\"findings\":[]") == std::string::npos) {
      problem = "findings on a fault-free compiler";
    } else if (i >= count &&
               WithoutProgramIndex(response) != WithoutProgramIndex(responses[i - count])) {
      problem = "resubmission answered differently";
    }
    if (!problem.empty()) {
      ++failed;
      if (errors.size() < 20) {
        errors.push_back("request " + std::to_string(i) + ": " + problem + ": " + response);
      }
    }
  }
  return failed;
}

}  // namespace

int RunServeBench(const BenchConfig& config) {
  const std::string socket_path =
      config.scratch_dir + "/serve-" + std::to_string(getpid()) + ".sock";
  const ServeInputs inputs = MakeInputs(config);
  gauntlet::CampaignOptions campaign = BaseCampaignOptions();
  // Set-up ends when the first session accepts connections.
  auto session = std::make_unique<ServeSession>(socket_path, campaign);
  RawResult result;
  result.setup_s = SecondsSinceSpawn(config);
  if (config.setup_only) {
    session->Finish();
    std::printf("%s\n", RawResultJson(result).c_str());
    return 0;
  }

  std::vector<std::string> first_responses;
  std::string first_fingerprint;
  std::vector<gauntlet::TraceEvent> first_spans;
  const auto record = [&](const StreamResult& stream, const gauntlet::CampaignReport& report) {
    result.failed += CheckResponses(stream.responses, result.errors);
    result.attempted += static_cast<int64_t>(stream.responses.size());
    const std::string fingerprint = ReportFingerprint(report);
    if (first_responses.empty()) {
      first_responses = stream.responses;
      first_fingerprint = fingerprint;
      result.tv_undecided = report.structural_mismatches;
    } else if (stream.responses != first_responses || fingerprint != first_fingerprint) {
      result.errors.push_back("serve answers differ between repetitions (traced or untraced)");
    }
  };

  RunSchedule(
      config,
      [&]() {
        if (session == nullptr) {
          session = std::make_unique<ServeSession>(socket_path, campaign);
        }
        StreamResult stream = RunStream(*session, inputs);
        record(stream, session->Finish());
        session.reset();
        result.untraced.push_back(std::move(stream.timing));
      },
      [&]() {
        const double parse_ms = ParseMs(inputs);
        gauntlet::MetricsRegistry metrics;
        gauntlet::TraceCollector collector;
        gauntlet::CampaignOptions traced_campaign = campaign;
        traced_campaign.metrics = &metrics;
        traced_campaign.trace = &collector;
        ServeSession traced_session(socket_path, traced_campaign);
        const StreamResult stream = RunStream(traced_session, inputs);
        const gauntlet::CampaignReport& report = traced_session.Finish();
        record(stream, report);
        result.traced_wall_s.push_back(stream.timing.wall_s);

        LayerEvents events = AttributeLayerEvents(stream.intervals, collector.SortedEvents());
        RegistryReader reader(metrics);
        std::map<std::string, double> layers = LayerValues(reader, events, report);
        layers["gen.generate_ms"] =
            std::accumulate(inputs.generate_ms.begin(), inputs.generate_ms.end(), 0.0);
        layers["frontend.parse_ms"] = parse_ms;
        // The server's own per-request span, the one that feeds
        // serve/request_latency_micros: everything HandleSubmission does.
        const double handle_ms = reader.SpanMs("request");
        layers["serve.handle_ms"] = handle_ms;
        layers["serve.transport_ms"] = stream.round_trip_ms - handle_ms;
        // The intervals are client round trips; the driver's share of a
        // request excludes the transport around it.
        layers["campaign.driver_ms"] -= layers["serve.transport_ms"];
        result.traced_layers.push_back(std::move(layers));
        result.absent_keys.insert(reader.absent().begin(), reader.absent().end());
        result.solve_us.insert(result.solve_us.end(), events.solve_us.begin(),
                               events.solve_us.end());
        if (first_spans.empty()) {
          first_spans = std::move(events.spans);
        }
      });

  if (!first_spans.empty()) {
    result.trace_file = config.trace_file;
    WriteSpanFile(result.trace_file, first_spans);
  }
  std::printf("%s\n", RawResultJson(result).c_str());
  return 0;
}

}  // namespace perfbench
