// Fleet membership and health for the campaign supervisor.
//
// A fleet is a set of worker hosts, each contributing a number of slots
// (concurrent workers). Every supervised campaign runs on one: --hosts /
// --hosts-file name its members, and without them it is the single node
// `localhost:<--workers>`. The supervisor asks the fleet for a slot before
// every launch (`acquire`, optionally avoiding the host a shard just died
// on — retry-elsewhere) and returns it on reap (`release`, carrying whether
// the attempt succeeded and whether it failed for lack of resources).
//
// Health is tracked per node by one rule with two parts:
//
//   degradation — two resource failures in a row (a spawn failure, exit
//                 127, or kOutOfMemory) mean the node is oversubscribed,
//                 not unlucky: its slots halve, never below one.
//   quarantine  — when a node's consecutive-failure streak reaches the
//                 configured limit it gets no new work for
//                 base * 2^(quarantines so far) seconds, capped. The only
//                 member is never quarantined: there is nowhere else to
//                 send the work, so benching it would only stall the run.
//
// Quarantine is graceful degradation, not removal — the host rejoins
// automatically when its clock expires, and a success resets its streaks.
// Only a fleet with zero usable hosts and work still pending is fatal
// (Errc::kNoHosts, decided by the supervisor, which can see the
// pending-work side).
//
// Membership is elastic: `reload` diffs a freshly parsed host list against
// the current one by host name. New hosts join immediately; hosts that
// disappeared start draining (no new work; running workers finish or die on
// their own). The supervisor triggers reload from SIGHUP by re-reading
// --hosts-file. See DESIGN.md §13.
#pragma once

#include <cstdint>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dnnfi/common/error.h"
#include "dnnfi/fault/transport.h"

namespace dnnfi::fault {

/// One `host:slots[:workdir]` entry of --hosts / --hosts-file.
struct HostSpec {
  std::string host;     ///< "localhost" (direct exec) or an ssh host name
  int slots = 1;        ///< concurrent workers this host runs
  std::string workdir;  ///< node-local scratch; "" = fleet default

  bool is_local() const { return is_local_host(host); }
};

/// Parses a comma-separated `host:slots[:workdir]` list (the --hosts flag).
/// kInvalidArgument on malformed entries (empty host, slots < 1, ...).
Expected<std::vector<HostSpec>> parse_hosts(const std::string& csv);

/// Parses a hosts file: one `host:slots[:workdir]` per line, blank lines
/// and `#` comments ignored. kIo when unreadable, kInvalidArgument on a
/// malformed line (the error names the line number).
Expected<std::vector<HostSpec>> parse_hosts_file(const std::string& path);

struct FleetConfig {
  /// Consecutive failures on one host before it is quarantined.
  int fail_limit = 3;
  /// Quarantine duration: base * 2^(prior quarantines), capped.
  double quarantine_base_s = 2.0;
  double quarantine_cap_s = 300.0;
  /// Scratch root for localhost nodes without an explicit workdir; node i
  /// gets `<scratch_root>/node<i>`. Remote hosts default to a /tmp path.
  std::string scratch_root;
};

/// Result of releasing a slot after a failed attempt.
struct ReleaseOutcome {
  bool quarantined = false;   ///< this failure tripped the quarantine
  double quarantine_s = 0.0;  ///< how long the host is out
  bool degraded = false;      ///< this failure halved the node's slots
};

class Fleet {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  /// One member host and its health state.
  struct Node {
    std::string id;        ///< "host#i" — unique even with duplicate names
    HostSpec spec;
    std::string scratch;   ///< worker-side checkpoint directory
    int busy = 0;               ///< slots currently running workers
    int fail_streak = 0;        ///< consecutive failed attempts
    int resource_streak = 0;    ///< resource failures since the last
                                ///< success or degradation
    int quarantine_count = 0;   ///< times quarantined (drives backoff)
    TimePoint quarantined_until{};  ///< no new work before this instant
    bool draining = false;      ///< removed from membership; finish and go

    bool quarantined(TimePoint now) const {
      return quarantined_until > now;
    }
    /// Eligible for new work right now.
    bool usable(TimePoint now) const {
      return !draining && !quarantined(now) && busy < spec.slots;
    }
  };

  Fleet(std::vector<HostSpec> specs, FleetConfig cfg);

  /// Picks a usable node, preferring any whose id differs from `avoid`
  /// (retry-elsewhere; pass "" for no preference). Among candidates the
  /// least-busy wins, ties broken by node order — deterministic given the
  /// same sequence of calls. nullptr when every node is busy, quarantined,
  /// or draining. The returned node has busy incremented; the caller MUST
  /// release() it exactly once.
  Node* acquire(const std::string& avoid);

  /// Returns a slot whose launch did not start (the node's retiring
  /// workers still hold it). Health is untouched.
  void unacquire(Node& node) { --node.busy; }

  /// Returns a slot. On failure, advances the node's streaks and possibly
  /// degrades or quarantines it (reported back for logging); on success,
  /// resets them. A resource failure is a spawn failure, exit 127, or
  /// kOutOfMemory.
  ReleaseOutcome release(Node& node, bool success,
                         bool resource_failure = false);

  /// Replaces membership with `specs` (diffed by host name, positionally
  /// within a name): surviving nodes keep their health state, new hosts
  /// join fresh, vanished hosts drain. A drained node is kept (and rejoins
  /// if its host comes back), so the supervisor's pointers to the nodes
  /// its workers run on never dangle. Returns how many joined/drained.
  std::pair<int, int> reload(const std::vector<HostSpec>& specs);

  /// Slots across non-draining hosts (quarantined hosts still count —
  /// quarantine is temporary and shard sizing should not churn with it).
  int total_slots() const;

  /// True while at least one non-draining host exists, quarantined or not.
  /// False means the fleet can never run anything again (kNoHosts).
  bool any_member() const;

  /// Earliest quarantine expiry among nodes that are idle-but-quarantined;
  /// nullopt when no wakeup is needed on the fleet's account.
  std::optional<TimePoint> earliest_release(TimePoint now) const;

  std::vector<std::unique_ptr<Node>>& nodes() { return nodes_; }

 private:
  std::unique_ptr<Node> make_node(const HostSpec& spec, int index);

  FleetConfig cfg_;
  std::vector<std::unique_ptr<Node>> nodes_;
  int next_index_ = 0;  ///< monotonically increasing node number
};

}  // namespace dnnfi::fault
