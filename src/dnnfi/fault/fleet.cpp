#include "dnnfi/fault/fleet.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace dnnfi::fault {

namespace {

Error bad_spec(const std::string& entry, const std::string& why) {
  return Error{Errc::kInvalidArgument,
               "host spec '" + entry + "': " + why +
                   " (expected host:slots[:workdir])"};
}

Expected<HostSpec> parse_one(const std::string& entry) {
  const auto first = entry.find(':');
  if (first == std::string::npos)
    return bad_spec(entry, "missing ':slots'");
  HostSpec spec;
  spec.host = entry.substr(0, first);
  if (spec.host.empty()) return bad_spec(entry, "empty host name");
  const auto second = entry.find(':', first + 1);
  const std::string slots_str =
      second == std::string::npos
          ? entry.substr(first + 1)
          : entry.substr(first + 1, second - first - 1);
  try {
    std::size_t used = 0;
    spec.slots = std::stoi(slots_str, &used);
    if (used != slots_str.size()) throw std::invalid_argument(slots_str);
  } catch (const std::exception&) {
    return bad_spec(entry, "slot count '" + slots_str + "' is not a number");
  }
  if (spec.slots < 1)
    return bad_spec(entry, "slot count must be >= 1");
  if (second != std::string::npos) {
    spec.workdir = entry.substr(second + 1);
    if (spec.workdir.empty())
      return bad_spec(entry, "workdir given but empty");
  }
  return spec;
}

}  // namespace

Expected<std::vector<HostSpec>> parse_hosts(const std::string& csv) {
  std::vector<HostSpec> specs;
  std::stringstream ss(csv);
  std::string entry;
  while (std::getline(ss, entry, ',')) {
    if (entry.empty()) continue;
    auto spec = parse_one(entry);
    if (!spec.ok()) return spec.error();
    specs.push_back(std::move(spec).value());
  }
  if (specs.empty())
    return fail(Errc::kInvalidArgument, "--hosts lists no hosts");
  return specs;
}

Expected<std::vector<HostSpec>> parse_hosts_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    return fail(Errc::kIo, "hosts file " + path + ": cannot open for reading");
  std::vector<HostSpec> specs;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments and surrounding whitespace.
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    const auto b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const auto e = line.find_last_not_of(" \t\r");
    auto spec = parse_one(line.substr(b, e - b + 1));
    if (!spec.ok())
      return fail(Errc::kInvalidArgument,
                  "hosts file " + path + " line " + std::to_string(lineno) +
                      ": " + spec.error().message);
    specs.push_back(std::move(spec).value());
  }
  if (specs.empty())
    return fail(Errc::kInvalidArgument,
                "hosts file " + path + " lists no hosts");
  return specs;
}

Fleet::Fleet(std::vector<HostSpec> specs, FleetConfig cfg)
    : cfg_(std::move(cfg)) {
  for (const HostSpec& s : specs) nodes_.push_back(make_node(s, next_index_++));
}

std::unique_ptr<Fleet::Node> Fleet::make_node(const HostSpec& spec,
                                              int index) {
  auto node = std::make_unique<Node>();
  node->id = spec.host + "#" + std::to_string(index);
  node->spec = spec;
  std::string scratch = spec.workdir;
  if (scratch.empty()) {
    // Localhost nodes scratch under the supervisor's checkpoint directory
    // (observable, cleaned with it); real remote hosts get a /tmp path the
    // worker creates itself.
    scratch = spec.is_local()
                  ? cfg_.scratch_root + "/node" + std::to_string(index)
                  : "/tmp/dnnfi_fleet/node" + std::to_string(index);
  }
  node->scratch = std::move(scratch);
  return node;
}

Fleet::Node* Fleet::acquire(const std::string& avoid) {
  const TimePoint now = Clock::now();
  Node* best = nullptr;
  bool best_avoided = false;
  for (auto& n : nodes_) {
    if (!n->usable(now)) continue;
    const bool avoided = !avoid.empty() && n->id == avoid;
    // Preference order: non-avoided beats avoided; within a class, least
    // busy wins; remaining ties keep list order (first wins).
    if (best == nullptr || (best_avoided && !avoided) ||
        (best_avoided == avoided && n->busy < best->busy)) {
      best = n.get();
      best_avoided = avoided;
    }
  }
  if (best != nullptr) ++best->busy;
  return best;
}

ReleaseOutcome Fleet::release(Node& node, bool success,
                             bool resource_failure) {
  if (node.busy > 0) --node.busy;
  ReleaseOutcome out;
  if (success) {
    node.fail_streak = 0;
    node.resource_streak = 0;
    return out;
  }
  if (resource_failure && ++node.resource_streak >= 2 &&
      node.spec.slots > 1) {
    node.spec.slots /= 2;
    node.resource_streak = 0;
    out.degraded = true;
  }
  ++node.fail_streak;
  const bool alone = std::none_of(
      nodes_.begin(), nodes_.end(), [&](const std::unique_ptr<Node>& n) {
        return n.get() != &node && !n->draining;
      });
  if (node.fail_streak >= cfg_.fail_limit && !alone) {
    double d = cfg_.quarantine_base_s;
    for (int i = 0; i < node.quarantine_count; ++i) d *= 2;
    d = std::min(d, cfg_.quarantine_cap_s);
    node.quarantined_until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(d));
    ++node.quarantine_count;
    node.fail_streak = 0;
    out.quarantined = true;
    out.quarantine_s = d;
  }
  return out;
}

std::pair<int, int> Fleet::reload(const std::vector<HostSpec>& specs) {
  // Diff by host name, positionally within a name: `host:2` twice in both
  // lists keeps both nodes and their health; dropping one drains the later.
  int joined = 0;
  int drained = 0;
  std::vector<Node*> keep;
  for (const HostSpec& s : specs) {
    Node* found = nullptr;
    for (auto& n : nodes_) {
      if (n->spec.host != s.host) continue;
      if (std::find(keep.begin(), keep.end(), n.get()) != keep.end())
        continue;
      found = n.get();
      break;
    }
    if (found != nullptr) {
      // Slot counts and workdirs follow the new spec; health survives.
      found->spec.slots = s.slots;
      if (found->draining) {
        found->draining = false;
        ++joined;
      }
      keep.push_back(found);
    } else {
      nodes_.push_back(make_node(s, next_index_++));
      keep.push_back(nodes_.back().get());
      ++joined;
    }
  }
  for (auto& n : nodes_) {
    const bool kept =
        std::find(keep.begin(), keep.end(), n.get()) != keep.end();
    if (!kept && !n->draining) {
      n->draining = true;
      ++drained;
    }
  }
  return {joined, drained};
}

int Fleet::total_slots() const {
  int total = 0;
  for (const auto& n : nodes_)
    if (!n->draining) total += n->spec.slots;
  return total;
}

bool Fleet::any_member() const {
  for (const auto& n : nodes_)
    if (!n->draining) return true;
  return false;
}

std::optional<Fleet::TimePoint> Fleet::earliest_release(TimePoint now) const {
  std::optional<TimePoint> earliest;
  for (const auto& n : nodes_) {
    if (n->draining || !n->quarantined(now) || n->busy >= n->spec.slots)
      continue;
    if (!earliest || n->quarantined_until < *earliest)
      earliest = n->quarantined_until;
  }
  return earliest;
}

}  // namespace dnnfi::fault
