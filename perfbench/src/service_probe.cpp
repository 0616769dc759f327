// service_probe.cpp — the service and wire layers, measured on the
// workload's own problem: closed-loop requests through
// service::SolveService behind net::Server, over a Unix socket, from
// net::Client connections in this process.
//
// The round builds a fresh service and server, connects the clients, lets
// each send its requests one at a time (each waits for its reply before
// sending the next), then drains and shuts everything down.  Every response
// is checked; the round's per-request figures become the service.* and
// net.* metrics, and its requests are recorded as spans.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "checks.hpp"
#include "layers.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "perfbench.hpp"
#include "service/service.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

struct Problem {
  tl::ProblemConfig config;
  Reference reference;
};

Problem with_reference(tl::ProblemConfig config) {
  Problem out;
  out.reference = make_reference(config);
  out.config = std::move(config);
  return out;
}

/// One request as the client saw it; kept only until its round is checked.
struct Record {
  const Problem* problem = nullptr;
  std::string label;
  double latency_s = 0.0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  service::SolveResponse response;
};

struct Round {
  long busy = 0;
  service::ServiceStats stats;
  std::vector<Record> records;
};

/// Stops and joins the server's event loop however the round ends.
class ServerThread {
 public:
  explicit ServerThread(net::Server& server)
      : server_(server), thread_([this] { server_.run(); }) {}
  ~ServerThread() {
    server_.request_stop();
    thread_.join();
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

 private:
  net::Server& server_;
  std::thread thread_;
};

/// Portable --no-tune mode: one single-threaded worker per thread of the
/// run's width, so the round uses the same width as the workload's solves.
service::ServiceOptions service_options(const RunConfig& config) {
  service::ServiceOptions options;
  options.workers = config.threads;
  options.threads_per_worker = 1;
  options.enable_tuning = false;
  return options;
}

/// Run one round: `plans[c]` is the request sequence of client c.
Round run_round(const RunConfig& config,
                const std::vector<std::vector<Record>>& plans,
                SpanRecorder& spans) {
  const std::string address =
      "unix:.perfbench-" + std::to_string(::getpid()) + ".sock";
  Round round;
  service::SolveService service(service_options(config));
  net::ServerOptions server_options;
  server_options.address = address;
  net::Server server(service, server_options);
  server.open();
  std::vector<std::unique_ptr<net::Client>> clients;
  {
    const ServerThread io(server);
    for (std::size_t c = 0; c < plans.size(); ++c) {
      clients.push_back(std::make_unique<net::Client>(address));
    }

    std::vector<std::vector<Record>> done(plans);
    std::vector<long> busy(plans.size(), 0);
    std::vector<std::string> errors(plans.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < plans.size(); ++c) {
      threads.emplace_back([&, c] {
        try {
          for (Record& r : done[c]) {
            const double start = now_seconds();
            r.start_ns = spans.now_ns();
            net::WireReply reply;
            for (;;) {
              reply = clients[c]->solve(r.problem->config, r.label);
              if (!reply.busy) break;
              ++busy[c];  // backpressure: resend, the reply is still owed
            }
            r.latency_s = now_seconds() - start;
            r.end_ns = spans.now_ns();
            r.response = std::move(reply.response);
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t c = 0; c < plans.size(); ++c) {
      if (!errors[c].empty()) {
        throw std::runtime_error("client " + std::to_string(c) + ": " +
                                 errors[c]);
      }
      round.busy += busy[c];
      round.records.insert(round.records.end(),
                           std::make_move_iterator(done[c].begin()),
                           std::make_move_iterator(done[c].end()));
    }
    round.stats = service.stats();
    for (auto& client : clients) client->close();
  }  // the server drains and its loop is joined here
  service.shutdown();
  return round;
}

/// Spans for the round: the client request, and beneath it the
/// service-side intervals its response reports (placed inside the request,
/// splitting the wire time evenly between the two directions).
void record_spans(SpanRecorder& spans, const Round& round) {
  long group = 0;
  for (const Record& r : round.records) {
    ++group;
    const service::SolveResponse& resp = r.response;
    const int request_id = spans.reserve_id();
    spans.record(request_id, "request", "net", r.start_ns, r.end_ns, -1,
                 group, "\"label\": \"" + r.label + "\"");
    const std::int64_t wire_ns =
        (r.end_ns - r.start_ns) -
        static_cast<std::int64_t>(resp.latency_seconds * 1e9);
    const std::int64_t svc_start =
        r.start_ns + std::max<std::int64_t>(0, wire_ns / 2);
    const std::int64_t svc_end =
        svc_start + static_cast<std::int64_t>(resp.latency_seconds * 1e9);
    const int service_id = spans.reserve_id();
    char args[128];
    std::snprintf(args, sizeof args, "\"batch\": %d", resp.batch_size);
    spans.record(service_id, "service", "service", svc_start, svc_end,
                 request_id, group, args);
    const std::int64_t queue_ns =
        static_cast<std::int64_t>(resp.queue_seconds * 1e9);
    spans.record(spans.reserve_id(), "queue", "service", svc_start,
                 svc_start + queue_ns, service_id, group);
    spans.record(spans.reserve_id(), "solve", "core",
                 svc_end - static_cast<std::int64_t>(resp.solve_seconds * 1e9),
                 svc_end, service_id, group);
  }
}

/// Mean microseconds per call of `fn` over `n` items, repeated `reps` times.
template <typename Fn>
double time_us(std::size_t n, int reps, Fn&& fn) {
  const double t0 = now_seconds();
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
  return (now_seconds() - t0) * 1e6 / static_cast<double>(n * reps);
}

struct Codec {
  double encode_request_us = 0.0;
  double decode_request_us = 0.0;
  double encode_response_us = 0.0;
  double decode_reply_us = 0.0;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
};

/// Time the wire codec on the round's own requests and responses.
Codec time_codec(const Round& round) {
  const std::size_t n = std::min<std::size_t>(round.records.size(), 256);
  std::vector<net::WireRequest> requests;
  std::vector<std::string> request_payloads, response_payloads;
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = round.records[i];
    requests.push_back(net::make_request(i + 1, r.label, r.problem->config));
    request_payloads.push_back(net::encode_request(requests.back()));
    response_payloads.push_back(net::encode_response(i + 1, r.response));
  }
  Codec codec;
  std::size_t sink = 0;
  codec.encode_request_us = time_us(n, 8, [&](std::size_t i) {
    sink += net::encode_request(requests[i]).size();
  });
  codec.decode_request_us = time_us(n, 8, [&](std::size_t i) {
    sink += static_cast<std::size_t>(
        net::request_problem(net::decode_request(request_payloads[i]))
            .x_cells);
  });
  codec.encode_response_us = time_us(n, 8, [&](std::size_t i) {
    sink += net::encode_response(i + 1, round.records[i].response).size();
  });
  codec.decode_reply_us = time_us(n, 8, [&](std::size_t i) {
    const net::Frame frame{net::FrameType::kResponse, response_payloads[i]};
    sink += static_cast<std::size_t>(net::decode_reply(frame).id);
  });
  std::vector<double> req_bytes, resp_bytes;
  for (std::size_t i = 0; i < n; ++i) {
    req_bytes.push_back(
        static_cast<double>(net::kHeaderBytes + request_payloads[i].size()));
    resp_bytes.push_back(
        static_cast<double>(net::kHeaderBytes + response_payloads[i].size()));
  }
  codec.request_bytes = mean(req_bytes);
  codec.response_bytes = mean(resp_bytes);
  if (sink == 0) std::fprintf(stderr, "perfbench: empty codec output\n");
  return codec;
}

/// The round's service-side figures, per request, as service.* and net.*
/// metrics.
void report_round(const Round& round, Result& result) {
  std::vector<double> queue, solve, other, batch, wire;
  for (const Record& rec : round.records) {
    const service::SolveResponse& resp = rec.response;
    queue.push_back(resp.queue_seconds);
    solve.push_back(resp.solve_seconds);
    other.push_back(resp.latency_seconds - resp.queue_seconds -
                    resp.solve_seconds);
    batch.push_back(resp.batch_size);
    wire.push_back(rec.latency_s - resp.latency_seconds);
  }
  result.set("service.queue_p50_s", quantile(queue, 0.5), "s");
  result.set("service.queue_p99_s", quantile(queue, 0.99), "s");
  result.set("service.solve_p50_s", quantile(solve, 0.5), "s");
  result.set("service.solve_p99_s", quantile(solve, 0.99), "s");
  result.set("service.other_p50_s", quantile(other, 0.5), "s");
  result.set("service.batch_mean", mean(batch), "requests");
  result.set("service.arena_allocated",
             static_cast<double>(round.stats.arena.allocated), "count");
  result.set("service.arena_reused",
             static_cast<double>(round.stats.arena.reused), "count");
  result.set("service.fallback_solves",
             static_cast<double>(round.stats.fallback_solves), "count");
  result.set("net.wire_p50_s", quantile(wire, 0.5), "s");
  result.set("net.wire_p99_s", quantile(wire, 0.99), "s");
  result.set("net.busy_replies", static_cast<double>(round.busy), "count");
  const Codec codec = time_codec(round);
  result.set("net.encode_request_us", codec.encode_request_us, "us");
  result.set("net.decode_request_us", codec.decode_request_us, "us");
  result.set("net.encode_response_us", codec.encode_response_us, "us");
  result.set("net.decode_reply_us", codec.decode_reply_us, "us");
  result.set("net.request_bytes", codec.request_bytes, "B");
  result.set("net.response_bytes", codec.response_bytes, "B");
}

/// Count and check every response of a finished round.
void check_round(const Round& round, Result& result) {
  for (const Record& r : round.records) {
    ++result.attempted;
    if (!r.response.ok()) ++result.failed;
    result.check(check_response(r.problem->config, r.problem->reference,
                                r.response));
  }
}

}  // namespace

void report_served_problem(const RunConfig& config,
                           const tl::ProblemConfig& problem, int per_client,
                           Result& result, SpanRecorder& spans) {
  // Canonicalised through deck text, exactly as the wire carries it.
  const Problem served =
      with_reference(tl::Config::parse(tl::to_deck(problem)).problem());
  // One connection per worker.
  std::vector<std::vector<Record>> plans(
      static_cast<std::size_t>(config.threads));
  for (auto& plan : plans) {
    for (int k = 0; k < per_client; ++k) {
      Record r;
      r.problem = &served;
      r.label = "served";
      plan.push_back(std::move(r));
    }
  }
  const Round round = run_round(config, plans, spans);
  check_round(round, result);
  record_spans(spans, round);
  report_round(round, result);
}

}  // namespace perfbench
