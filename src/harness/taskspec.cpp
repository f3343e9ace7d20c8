#include "harness/taskspec.hpp"

#include <cstdio>

#include "util/check.hpp"
#include "util/jsonio.hpp"

namespace hxsp {

const char* task_kind_name(TaskKind kind) {
  switch (kind) {
    case TaskKind::kRate: return "rate";
    case TaskKind::kCompletion: return "completion";
    case TaskKind::kDynamic: return "dynamic";
    case TaskKind::kWorkload: return "workload";
    case TaskKind::kMultitenant: return "multitenant";
  }
  return "?";
}

TaskKind task_kind_from_name(const std::string& name) {
  if (name == "rate") return TaskKind::kRate;
  if (name == "completion") return TaskKind::kCompletion;
  if (name == "dynamic") return TaskKind::kDynamic;
  if (name == "workload") return TaskKind::kWorkload;
  if (name == "multitenant") return TaskKind::kMultitenant;
  HXSP_CHECK_MSG(false, ("unknown task kind: " + name).c_str());
  return TaskKind::kRate;
}

TaskSpec TaskSpec::rate(ExperimentSpec spec, double offered) {
  TaskSpec t;
  t.kind = TaskKind::kRate;
  t.spec = std::move(spec);
  t.offered = offered;
  return t;
}

TaskSpec TaskSpec::completion(ExperimentSpec spec, long packets_per_server,
                              Cycle bucket_width, Cycle max_cycles) {
  TaskSpec t;
  t.kind = TaskKind::kCompletion;
  t.spec = std::move(spec);
  t.packets_per_server = packets_per_server;
  t.bucket_width = bucket_width;
  t.max_cycles = max_cycles;
  return t;
}

TaskSpec TaskSpec::dynamic_faults(ExperimentSpec spec, double offered,
                                  std::vector<FaultEvent> events) {
  TaskSpec t;
  t.kind = TaskKind::kDynamic;
  t.spec = std::move(spec);
  t.offered = offered;
  t.events = std::move(events);
  return t;
}

TaskSpec TaskSpec::workload(ExperimentSpec spec, WorkloadParams params,
                            Cycle bucket_width, Cycle max_cycles) {
  TaskSpec t;
  t.kind = TaskKind::kWorkload;
  t.spec = std::move(spec);
  t.workload_params = std::move(params);
  t.bucket_width = bucket_width;
  t.max_cycles = max_cycles;
  return t;
}

TaskSpec TaskSpec::multitenant(ExperimentSpec spec, MultitenantParams params,
                               Cycle bucket_width, Cycle max_cycles) {
  TaskSpec t;
  t.kind = TaskKind::kMultitenant;
  t.spec = std::move(spec);
  t.multitenant_params = std::move(params);
  t.bucket_width = bucket_width;
  t.max_cycles = max_cycles;
  return t;
}

std::string TaskSpec::driver() const {
  const std::size_t slash = id.find('/');
  return slash == std::string::npos ? std::string() : id.substr(0, slash);
}

bool operator==(const TaskSpec& a, const TaskSpec& b) {
  return a.id == b.id && a.kind == b.kind && a.spec == b.spec &&
         a.offered == b.offered &&
         a.packets_per_server == b.packets_per_server &&
         a.bucket_width == b.bucket_width && a.max_cycles == b.max_cycles &&
         a.events == b.events && a.workload_params == b.workload_params &&
         a.multitenant_params == b.multitenant_params && a.label == b.label &&
         a.extra == b.extra;
}

namespace {

void workload_params_write_json(JsonWriter& w, const WorkloadParams& p) {
  w.begin_object();
  w.key("name").value(p.name);
  w.key("msg_packets").value(p.msg_packets);
  w.key("rounds").value(p.rounds);
  w.key("fanout").value(p.fanout);
  w.key("trace").value(p.trace);
  w.end_object();
}

WorkloadParams workload_params_from_json(const JsonValue& v) {
  WorkloadParams p;
  p.name = v.at("name").as_string();
  p.msg_packets = v.at("msg_packets").as_int();
  p.rounds = v.at("rounds").as_int();
  p.fanout = v.at("fanout").as_int();
  p.trace = v.at("trace").as_string();
  return p;
}

void task_write_json(JsonWriter& w, const TaskSpec& t) {
  w.begin_object();
  w.key("id").value(t.id);
  w.key("kind").value(task_kind_name(t.kind));
  w.key("label").value(t.label);
  w.key("extra").value(t.extra);
  w.key("offered").value(t.offered);
  w.key("packets_per_server")
      .value(static_cast<std::int64_t>(t.packets_per_server));
  w.key("bucket_width").value(static_cast<std::int64_t>(t.bucket_width));
  w.key("max_cycles").value(static_cast<std::int64_t>(t.max_cycles));
  w.key("events").begin_array();
  for (const FaultEvent& e : t.events) {
    w.begin_object();
    w.key("at").value(static_cast<std::int64_t>(e.at));
    w.key("link").value(static_cast<std::int64_t>(e.link));
    w.end_object();
  }
  w.end_array();
  w.key("workload");
  workload_params_write_json(w, t.workload_params);
  w.key("multitenant").begin_object();
  w.key("placement").value(t.multitenant_params.placement);
  w.key("isolated_baseline").value(t.multitenant_params.isolated_baseline);
  w.key("jobs").begin_array();
  for (const JobSpec& j : t.multitenant_params.jobs) {
    w.begin_object();
    w.key("demand").value(static_cast<std::int64_t>(j.demand));
    w.key("arrival").value(static_cast<std::int64_t>(j.arrival));
    w.key("deadline").value(static_cast<std::int64_t>(j.deadline));
    w.key("workload");
    workload_params_write_json(w, j.workload);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("spec");
  spec_write_json(w, t.spec);
  w.end_object();
}

} // namespace

std::string TaskSpec::to_json() const {
  JsonWriter w;
  task_write_json(w, *this);
  return w.str();
}

TaskSpec TaskSpec::from_json(const JsonValue& v) {
  TaskSpec t;
  t.id = v.at("id").as_string();
  t.kind = task_kind_from_name(v.at("kind").as_string());
  t.label = v.at("label").as_string();
  t.extra = v.at("extra").as_string();
  t.offered = v.at("offered").as_double();
  HXSP_CHECK_MSG(t.offered >= 0.0, "offered must be >= 0");
  t.packets_per_server = static_cast<long>(v.at("packets_per_server").as_i64());
  t.bucket_width = v.at("bucket_width").as_i64();
  t.max_cycles = v.at("max_cycles").as_i64();
  t.events.clear();
  for (const JsonValue& e : v.at("events").array()) {
    FaultEvent ev;
    ev.at = e.at("at").as_i64();
    ev.link = static_cast<LinkId>(e.at("link").as_i64());
    t.events.push_back(ev);
  }
  t.workload_params = workload_params_from_json(v.at("workload"));
  // Tolerant read: manifests written before the multitenant kind carry no
  // "multitenant" key and keep the default-constructed params.
  if (const JsonValue* mt = v.find("multitenant")) {
    t.multitenant_params.placement = mt->at("placement").as_string();
    t.multitenant_params.isolated_baseline =
        mt->at("isolated_baseline").as_bool();
    for (const JsonValue& jv : mt->at("jobs").array()) {
      JobSpec j;
      j.demand = static_cast<ServerId>(jv.at("demand").as_i64());
      j.arrival = jv.at("arrival").as_i64();
      j.deadline = jv.at("deadline").as_i64();
      j.workload = workload_params_from_json(jv.at("workload"));
      t.multitenant_params.jobs.push_back(std::move(j));
    }
  }
  t.spec = spec_from_json(v.at("spec"));
  // A server generates at most one packet per cycle (Server's Bernoulli
  // draw has probability offered / packet_length).
  HXSP_CHECK_MSG(t.offered <= static_cast<double>(t.spec.sim.packet_length),
                 "offered must be <= sim.packet_length (1 packet/cycle)");
  return t;
}

TaskSpec TaskSpec::from_json_text(const std::string& text) {
  return from_json(JsonValue::parse(text));
}

std::string manifest_to_json(const std::vector<TaskSpec>& tasks) {
  JsonWriter w;
  w.begin_array();
  for (const TaskSpec& t : tasks) task_write_json(w, t);
  w.end_array();
  return w.str() + "\n";
}

std::vector<TaskSpec> manifest_from_json(const std::string& text) {
  const JsonValue doc = JsonValue::parse(text);
  std::vector<TaskSpec> tasks;
  tasks.reserve(doc.array().size());
  for (const JsonValue& v : doc.array()) tasks.push_back(TaskSpec::from_json(v));
  return tasks;
}

std::string make_task_id(const std::string& driver, std::size_t index) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%06zu", index);
  return driver + "/" + buf;
}

TaskKind task_result_kind(const TaskResult& result) {
  switch (result.index()) {
    case 0: return TaskKind::kRate;
    case 1: return TaskKind::kCompletion;
    case 2: return TaskKind::kDynamic;
    case 3: return TaskKind::kWorkload;
    default: return TaskKind::kMultitenant;
  }
}

const ResultRow* task_result_row(const TaskResult& result) {
  if (const ResultRow* row = std::get_if<ResultRow>(&result)) return row;
  if (const DynamicResult* dyn = std::get_if<DynamicResult>(&result))
    return &dyn->row;
  return nullptr;
}

TaskResult run_task(const TaskSpec& task, int step_threads,
                    TelemetryCapture* telemetry) {
  Experiment e(task.spec);
  // Execution knob, not part of the spec (any value is bit-identical, so
  // it never belongs in a manifest — see TaskSpec's codec note).
  if (step_threads > 0) e.set_step_threads(step_threads);
  if (telemetry) e.attach_telemetry(telemetry);
  switch (task.kind) {
    case TaskKind::kCompletion:
      return e.run_completion(task.packets_per_server, task.bucket_width,
                              task.max_cycles);
    case TaskKind::kDynamic:
      return e.run_load_dynamic(task.offered, task.events);
    case TaskKind::kWorkload:
      return e.run_workload(task.workload_params, task.bucket_width,
                            task.max_cycles);
    case TaskKind::kMultitenant:
      return e.run_multitenant(task.multitenant_params, task.bucket_width,
                               task.max_cycles);
    case TaskKind::kRate:
      break;
  }
  return e.run_load(task.offered);
}

} // namespace hxsp
