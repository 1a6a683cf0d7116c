#include "search.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "bounds.hh"
#include "nogood.hh"
#include "profile.hh"
#include "propagate.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/str.hh"
#include "support/trace.hh"

namespace hilp {
namespace cp {

namespace {

using Clock = std::chrono::steady_clock;

/** Sentinel "no bound known" value (empty aggregator). */
constexpr Time kInfTime = std::numeric_limits<Time>::max();

/** The parallel search publishes every child of nodes shallower than this. */
constexpr int kSplitDepth = 4;

/**
 * Local nodes between checks of the shared node/time budgets. The
 * global node counter advances in these increments, so parallel
 * searches may overshoot maxNodes by up to threads * kBudgetBatch
 * nodes. The single-thread budget is exact.
 */
constexpr int64_t kBudgetBatch = 64;

/** Nodes between wall-clock polls of the single-thread budget (2^k). */
constexpr int64_t kClockPoll = 1024;

/** One trace instant per this many local nodes (power of two). */
constexpr int64_t kNodeTraceSample = 8192;

/** Starved-worker polls before parking on the condition variable. */
constexpr int kIdleSpinIters = 64;

/** Parked-wait backoff bounds (exponential doubling between). */
constexpr int64_t kIdleSleepMinUs = 64;
constexpr int64_t kIdleSleepMaxUs = 1024;

/** One branching decision on the path from the root. */
struct Decision
{
    int task;
    int mode;
    Time start;
};

/**
 * A subtree of the search, identified by its decision prefix, plus a
 * certified lower bound on the makespan of every schedule inside it.
 */
struct Subproblem
{
    std::vector<Decision> prefix;
    Time bound = 0;
};

/**
 * The globally best schedule. The makespan is a lock-free atomic so
 * every pruning test is one acquire load; the schedule itself is
 * published under a mutex by whichever worker wins the CAS, so the
 * stored schedule always matches the lowest makespan published so
 * far.
 */
class SharedIncumbent
{
  public:
    SharedIncumbent(Time initial_ub, const ScheduleVec *warm)
        : ub_(initial_ub)
    {
        if (warm) {
            best_ = *warm;
            warmStarted_ = true;
        }
    }

    Time ub() const { return ub_.load(std::memory_order_acquire); }

    bool
    found() const
    {
        return warmStarted_ ||
               improvements_.load(std::memory_order_acquire) > 0;
    }

    int64_t
    improvements() const
    {
        return improvements_.load(std::memory_order_acquire);
    }

    /**
     * Install a strictly better incumbent. Returns false when a
     * concurrent offer is at least as good.
     */
    bool
    offer(Time makespan, const std::vector<Assignment> &assign)
    {
        Time cur = ub_.load(std::memory_order_relaxed);
        while (makespan < cur) {
            if (!ub_.compare_exchange_weak(cur, makespan,
                                           std::memory_order_acq_rel))
                continue;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                // Two winning CAS-es can publish out of order; keep
                // the schedule matching the lowest makespan.
                if (!published_ || makespan < publishedMakespan_) {
                    best_.tasks = assign;
                    publishedMakespan_ = makespan;
                    published_ = true;
                }
            }
            improvements_.fetch_add(1, std::memory_order_acq_rel);
            return true;
        }
        return false;
    }

    /** The best schedule. Only call after the workers have joined. */
    const ScheduleVec &best() const { return best_; }

  private:
    std::atomic<Time> ub_;
    std::atomic<int64_t> improvements_{0};
    std::mutex mutex_;
    ScheduleVec best_;
    Time publishedMakespan_ = 0;
    bool published_ = false;
    bool warmStarted_ = false;
};

/**
 * Multiset of the lower bounds of every queued or in-flight
 * subproblem. Its minimum is a certified lower bound on anything the
 * remaining search can still find, so
 * max(externalLB, min(incumbent, min())) is a sound global lower
 * bound for the targetGap stop — typically much tighter than the
 * external bound alone once the easy subtrees finish. Operations are
 * per-subproblem (coarse), so the mutex sees little contention.
 */
class BoundAggregator
{
  public:
    void
    add(Time bound)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bounds_.insert(bound);
    }

    void
    remove(Time bound)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = bounds_.find(bound);
        hilp_assert(it != bounds_.end());
        bounds_.erase(it);
    }

    /** Smallest registered bound, or kInfTime when none remain. */
    Time
    min() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return bounds_.empty() ? kInfTime : *bounds_.begin();
    }

  private:
    mutable std::mutex mutex_;
    std::multiset<Time> bounds_;
};

/**
 * A per-worker deque with the Chase–Lev ownership discipline: the
 * owner pushes and pops at the bottom (depth-first order), thieves
 * take half from the top — the shallowest prefixes, i.e. the largest
 * subtrees. Guarded by a mutex: subproblems are coarse (a worker
 * touches the deque once per subtree, not per node), so lock traffic
 * is negligible next to the search itself.
 */
class WorkDeque
{
  public:
    void
    push(Subproblem &&sub)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(sub));
    }

    bool
    pop(Subproblem *out)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty())
            return false;
        *out = std::move(queue_.back());
        queue_.pop_back();
        return true;
    }

    /** Move the top half (at least one) of the deque into *out. */
    size_t
    steal(std::vector<Subproblem> *out)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        size_t take = (queue_.size() + 1) / 2;
        for (size_t i = 0; i < take; ++i) {
            out->push_back(std::move(queue_.front()));
            queue_.pop_front();
        }
        return take;
    }

  private:
    std::mutex mutex_;
    std::deque<Subproblem> queue_;
};

/** Everything the workers share. */
struct Shared
{
    const Model &model;
    const SearchLimits &limits;
    int threads;
    CriticalPathData cp;
    /**
     * Per task t, the two terms of the option prune: an option of t
     * over [start, complete) admits no schedule shorter than
     * max(complete + succTail[t], start + lagTail[t]). succTail is
     * the longest tail of a precedence successor and lagTail the
     * longest lag plus tail of a lag successor (0 when t has none).
     */
    std::vector<Time> succTail, lagTail;
    SharedIncumbent incumbent;
    BoundAggregator aggregator;
    /** One per worker of a parallel search; empty at one thread. */
    std::vector<WorkDeque> deques;
    Clock::time_point startTime;
    /**
     * Spill children once `pending` (queued + in-flight) drops below
     * this. With some worker idle, in-flight == threads - idle, so
     * the condition fires when fewer subproblems queue than workers
     * starve.
     */
    int64_t lowWater;

    /**
     * Subproblems queued on any deque *or* claimed and still being
     * processed. A claimed subproblem stays counted until process()
     * returns, so once this counter reads 0 no unexplored work can
     * exist anywhere: new subproblems are only published from inside
     * process() (whose own subproblem is still counted), which makes
     * 0 an absorbing state and a single acquire load of it a sound
     * termination test — no multi-variable snapshot needed.
     */
    std::atomic<int64_t> pending{0};
    /**
     * Workers currently looking for work. Drives the spill
     * heuristic only; termination rests on `pending` alone.
     */
    std::atomic<int> idle{0};
    /** The target gap was reached; everyone unwinds. */
    std::atomic<bool> gapStop{false};
    /** A node or wall-clock budget was hit; everyone unwinds. */
    std::atomic<bool> limitHit{false};
    /** All subproblems are done and every worker is idle. */
    std::atomic<bool> allDone{false};
    /** Batched global node count for budget checks. */
    std::atomic<int64_t> nodesApprox{0};

    /**
     * No-good store shared by the parallel workers (a recorded bound
     * is valid for every worker: it is certified either by the
     * node bound or against the shared incumbent, which only
     * decreases — see nogood.hh). Created when a crew starts; null
     * at one thread, where the worker resets its thread's table.
     */
    std::unique_ptr<NogoodStore> nogoods;

    /** Parking lot for starving workers (see Worker::waitForWork). */
    std::mutex waitMutex;
    std::condition_variable waitCv;

    /**
     * Wake parked workers: new work was published or a stop flag was
     * set. The empty critical section serializes with a waiter
     * between its predicate check and its wait, so a notification
     * cannot fall into that gap; the timed wait bounds the cost of
     * any race this cheap handshake still leaves.
     */
    void
    wake()
    {
        { std::lock_guard<std::mutex> lock(waitMutex); }
        waitCv.notify_all();
    }

    Shared(const Model &model_in, const SearchLimits &limits_in,
           Time initial_ub, const ScheduleVec *warm, int threads_in)
        : model(model_in),
          limits(limits_in),
          threads(threads_in),
          cp(criticalPathData(model_in)),
          incumbent(initial_ub, warm),
          deques(threads_in > 1 ? static_cast<size_t>(threads_in) : 0),
          startTime(Clock::now()),
          lowWater(threads_in)
    {
        succTail.assign(static_cast<size_t>(model.numTasks()), 0);
        lagTail.assign(succTail.size(), 0);
        for (int t = 0; t < model.numTasks(); ++t) {
            for (int s : model.successors(t))
                succTail[t] = std::max(succTail[t], cp.tail[s]);
            for (const Model::LagEdge &edge : model.lagSuccessors(t))
                lagTail[t] = std::max(lagTail[t],
                                      edge.lag + cp.tail[edge.other]);
        }
    }

    /** True once the wall-clock budget or the deadline has passed. */
    bool
    expired() const
    {
        Clock::time_point now = Clock::now();
        return now >= limits.deadline ||
               std::chrono::duration<double>(now - startTime).count() >=
                   limits.maxSeconds;
    }
};

/**
 * True when an incumbent of makespan `ub` already satisfies the
 * target gap against the external lower bound.
 */
bool
gapReached(Time ub, const SearchLimits &limits)
{
    if (limits.targetGap <= 0.0)
        return false;
    if (ub <= 0)
        return true;
    double gap = static_cast<double>(ub - limits.lowerBound) /
                 static_cast<double>(ub);
    return gap <= limits.targetGap;
}

/**
 * One worker: a private profile and node bound plus the branching
 * state, with path_ its only decision stack, driven from the root
 * (single thread) or by the shared deques (parallel search). Both
 * branch through the same dfs(), so the union of the subtrees covers
 * the same schedule space and the returned optima agree (the
 * differential test in tests/cp/test_parallel_search.cc holds this).
 */
class Worker
{
  public:
    Worker(Shared &shared, int id)
        : shared_(shared),
          model_(shared.model),
          limits_(shared.limits),
          id_(id),
          private_(shared.threads == 1),
          n_(shared.model.numTasks()),
          profile_(shared.model),
          bound_(shared.model, shared.cp)
    {
        assign_.assign(n_, Assignment{});
        end_.assign(n_, 0);
        remainingPreds_.assign(n_, 0);
        for (int t = 0; t < n_; ++t) {
            remainingPreds_[t] =
                static_cast<int>(model_.predecessors(t).size()) +
                static_cast<int>(model_.lagPredecessors(t).size());
        }
        eligiblePos_.assign(n_, -1);
        for (int t = 0; t < n_; ++t)
            if (remainingPreds_[t] == 0)
                addEligible(t);
        path_.reserve(static_cast<size_t>(n_));
        depths_.resize(static_cast<size_t>(n_));

        privUb_ = shared.incumbent.ub();
        privFound_ = shared.incumbent.found();
        nogoods_ = shared.nogoods.get();
        scratchBaseline_ = scratchHeapBytes();
    }

    // -- Telemetry, read by the driver after the join. ------------
    int64_t nodes() const { return nodes_; }
    int64_t backtracks() const { return backtracks_; }
    int64_t solutions() const { return solutions_; }
    int64_t steals() const { return steals_; }
    int64_t published() const { return published_; }
    int64_t nogoodHits() const { return nogoodHits_; }
    int64_t nogoodsRecorded() const { return nogoodsRecorded_; }
    const std::vector<PropagatorStats> &propagators() const
    { return bound_.stats(); }

    /** Scratch heap growth since construction (steady state: 0). */
    int64_t scratchBytes() const
    { return scratchHeapBytes() - scratchBaseline_; }

    // -- Private incumbent (single thread). ------------------------
    bool privateFound() const { return privFound_; }
    Time privateUb() const { return privUb_; }
    const ScheduleVec &privateBest() const { return privBest_; }
    bool stoppedOnGap() const { return localStop_; }
    bool stoppedOnLimit() const { return localLimit_; }

    /** Single thread: search the whole tree from the root. */
    void
    searchFromRoot()
    {
        dfs(0);
    }

    /** Parallel search: pop, steal, search, spill, repeat. */
    void
    runStealing()
    {
        trace::Span span("cp.search.worker",
                         trace::Arg::intArg("worker", id_));
        while (!abortRequested()) {
            Subproblem sub;
            if (shared_.deques[id_].pop(&sub)) {
                process(sub);
                continue;
            }
            if (trySteal(&sub)) {
                process(sub);
                continue;
            }
            if (!waitForWork(&sub))
                break;
            process(sub);
        }
        // Flush the node-count remainder of the last batch.
        shared_.nodesApprox.fetch_add(nodes_ & (kBudgetBatch - 1),
                                      std::memory_order_relaxed);
        span.arg(trace::Arg::intArg("nodes", nodes_));
        span.arg(trace::Arg::intArg("steals", steals_));
    }

  private:
    void
    addEligible(int t)
    {
        eligiblePos_[t] = static_cast<int>(eligible_.size());
        eligible_.push_back(t);
    }

    /**
     * O(1) swap-remove from the eligible set. The set's internal
     * order is irrelevant: every node copies and re-sorts it into
     * its branch order, so the branch order stays deterministic.
     */
    void
    removeEligible(int t)
    {
        int pos = eligiblePos_[t];
        hilp_assert(pos >= 0 && eligible_[pos] == t);
        int last = eligible_.back();
        eligible_[pos] = last;
        eligiblePos_[last] = pos;
        eligible_.pop_back();
        eligiblePos_[t] = -1;
    }

    /**
     * Commit one decision: the profile, the node bound's summaries
     * and the branching state take it, and path_ records it.
     */
    Time
    apply(const Decision &d)
    {
        const Mode &mode = model_.task(d.task).modes[
            static_cast<size_t>(d.mode)];
        profile_.place(mode, d.start);
        bound_.place(d.task, mode);
        assign_[d.task] = {d.mode, d.start};
        end_[d.task] = d.start + mode.duration;
        hash_ ^= nogoodCode(d.task, d.mode, d.start);
        ++scheduled_;
        removeEligible(d.task);
        for (int s : model_.successors(d.task))
            if (--remainingPreds_[s] == 0)
                addEligible(s);
        for (const Model::LagEdge &edge : model_.lagSuccessors(d.task))
            if (--remainingPreds_[edge.other] == 0)
                addEligible(edge.other);
        path_.push_back(d);
        return end_[d.task];
    }

    /** Unwind the latest decision exactly. */
    void
    undo()
    {
        hilp_assert(!path_.empty());
        const Decision d = path_.back();
        path_.pop_back();
        const int t = d.task;
        hash_ ^= nogoodCode(d.task, d.mode, d.start);
        for (int s : model_.successors(t))
            if (remainingPreds_[s]++ == 0)
                removeEligible(s);
        for (const Model::LagEdge &edge : model_.lagSuccessors(t))
            if (remainingPreds_[edge.other]++ == 0)
                removeEligible(edge.other);
        addEligible(t);
        --scheduled_;
        assign_[t] = Assignment{};
        end_[t] = 0;
        const Mode &mode = model_.task(t).modes[
            static_cast<size_t>(d.mode)];
        bound_.remove(t, mode);
        profile_.remove(mode, d.start);
    }

    /**
     * Record "every completion of the current placement set has
     * makespan >= bound". The single-thread worker takes its
     * thread's table here, at its first record, and resets it: a
     * reset table prunes exactly like a fresh one, so the search's
     * pruning stays a function of its own tree only, and a thread
     * allocates the table once rather than once per search.
     */
    void
    recordNogood(Time bound)
    {
        if (!nogoods_) {
            static thread_local NogoodStore table;
            table.reset();
            nogoods_ = &table;
        }
        nogoods_->record(hash_, bound, scheduled_);
        ++nogoodsRecorded_;
    }

    /** The upper bound this worker prunes against right now. */
    Time
    currentUb() const
    {
        return private_ ? privUb_ : shared_.incumbent.ub();
    }

    bool
    abortRequested() const
    {
        if (private_)
            return localStop_ || localLimit_;
        return shared_.gapStop.load(std::memory_order_relaxed) ||
               shared_.limitHit.load(std::memory_order_relaxed) ||
               shared_.allDone.load(std::memory_order_relaxed);
    }

    /**
     * Per-node accounting: counts the node and checks the node and
     * wall-clock budgets. Returns true when the search must unwind.
     */
    bool
    nodeAdmission()
    {
        ++nodes_;
        if (trace::enabled() &&
            (nodes_ & (kNodeTraceSample - 1)) == 0)
            trace::instant("cp.nodes",
                           trace::Arg::intArg("nodes", nodes_));
        if (private_) {
            // The single-thread budget is exact: the node count is
            // checked on every node, so a run stops at precisely its
            // budget.
            if (nodes_ >= limits_.maxNodes ||
                ((nodes_ & (kClockPoll - 1)) == 0 && shared_.expired()))
                localLimit_ = true;
            return localStop_ || localLimit_;
        }
        if ((nodes_ & (kBudgetBatch - 1)) == 0) {
            int64_t global = shared_.nodesApprox.fetch_add(
                kBudgetBatch, std::memory_order_relaxed) +
                kBudgetBatch;
            if (global >= limits_.maxNodes || shared_.expired()) {
                shared_.limitHit.store(true,
                                       std::memory_order_relaxed);
                shared_.wake();
            }
        }
        return abortRequested();
    }

    /** A complete schedule: offer it as the new incumbent. */
    void
    offer(Time makespan)
    {
        if (private_) {
            if (privFound_ && makespan >= privUb_)
                return;
            privUb_ = makespan;
            privFound_ = true;
            privBest_.tasks = assign_;
        } else if (!shared_.incumbent.offer(makespan, assign_)) {
            return;
        }
        ++solutions_;
        if (trace::enabled()) {
            double gap = makespan > 0
                ? static_cast<double>(makespan - limits_.lowerBound) /
                  static_cast<double>(makespan)
                : 0.0;
            trace::instant("cp.incumbent",
                           trace::Arg::intArg("makespan", makespan),
                           trace::Arg::numArg("gap", gap));
        }
        // The private incumbent stops against the external bound.
        if (!private_)
            sharedGapCheck();
        else if (gapReached(privUb_, limits_))
            localStop_ = true;
    }

    /**
     * Parallel targetGap stop against the aggregated global
     * lower bound: the optimum is at least
     * min(incumbent, min over remaining subtree bounds), and at
     * least the external bound.
     */
    void
    sharedGapCheck()
    {
        if (limits_.targetGap <= 0.0 ||
            !shared_.incumbent.found())
            return;
        Time ub = shared_.incumbent.ub();
        if (ub <= 0) {
            shared_.gapStop.store(true, std::memory_order_relaxed);
            shared_.wake();
            return;
        }
        Time remaining = shared_.aggregator.min();
        if (remaining == kInfTime)
            return; // Everything explored; exhaustion handles it.
        Time lb = std::max(limits_.lowerBound,
                           std::min(ub, remaining));
        double gap = static_cast<double>(ub - lb) /
                     static_cast<double>(ub);
        if (gap <= limits_.targetGap) {
            shared_.gapStop.store(true, std::memory_order_relaxed);
            shared_.wake();
        }
    }

    /**
     * Spill policy: publish children as stealable subproblems above
     * the split depth, and anywhere while workers are starving.
     */
    bool
    shouldSpill() const
    {
        if (private_)
            return false;
        if (scheduled_ < kSplitDepth)
            return true;
        return shared_.idle.load(std::memory_order_relaxed) > 0 &&
               shared_.pending.load(std::memory_order_relaxed) <
                   shared_.lowWater;
    }

    /** Publish one child of the current node onto the own deque. */
    void
    publish(const Decision &d, Time bound)
    {
        Subproblem sub;
        sub.prefix.reserve(path_.size() + 1);
        sub.prefix = path_;
        sub.prefix.push_back(d);
        sub.bound = bound;
        shared_.aggregator.add(bound);
        shared_.pending.fetch_add(1, std::memory_order_relaxed);
        shared_.deques[id_].push(std::move(sub));
        ++published_;
        if (shared_.idle.load(std::memory_order_relaxed) > 0)
            shared_.wake();
    }

    /**
     * The search recursion: branch over the eligible tasks and their
     * feasible options, spilling children for stealing where the
     * parallel search asks for it.
     */
    void
    dfs(Time makespan)
    {
        if (nodeAdmission())
            return;
        if (scheduled_ == n_) {
            offer(makespan);
            return;
        }
        // A recorded no-good proves every completion of this
        // placement set is >= its bound; prune when that cannot beat
        // the incumbent this worker sees right now.
        if (nogoods_ && scheduled_ > 0) {
            Time known = nogoods_->lookup(hash_);
            if (known != NogoodStore::kNoBound &&
                known >= currentUb()) {
                ++nogoodHits_;
                return;
            }
        }
        Time ub = currentUb();
        Time node_bound = bound_.bound(assign_, end_, makespan,
                                       limits_.lowerBound, ub);
        if (node_bound >= ub) {
            // Certified by the node bound alone.
            if (scheduled_ > 0)
                recordNogood(node_bound);
            return;
        }

        // Branch over all eligible tasks, longest tail first. The
        // branch order and option list reuse this depth's vectors,
        // so no node allocates once every depth has been visited.
        Depth &depth = depths_[static_cast<size_t>(scheduled_)];
        std::vector<int> &order = depth.order;
        order.assign(eligible_.begin(), eligible_.end());
        std::sort(order.begin(), order.end(),
                  [this](int a, int b) {
                      if (shared_.cp.tail[a] != shared_.cp.tail[b])
                          return shared_.cp.tail[a] >
                                 shared_.cp.tail[b];
                      return a < b;
                  });

        bool spill = shouldSpill();
        std::vector<Option> &options = depth.options;
        for (int t : order) {
            Time est = 0;
            for (int p : model_.predecessors(t))
                est = std::max(est, end_[p]);
            for (const Model::LagEdge &edge :
                 model_.lagPredecessors(t))
                est = std::max(est, assign_[edge.other].start +
                                    edge.lag);

            const Task &task = model_.task(t);
            // Enumerate feasible (mode, start) options; sort by their
            // makespan bound (on a lag-free model, completion plus a
            // constant) so promising branches go first.
            options.clear();
            options.reserve(task.modes.size());
            const Time succ_tail = shared_.succTail[t];
            const Time lag_tail = shared_.lagTail[t];
            auto option_bound = [&](Time start, Time complete) {
                return std::max(complete + succ_tail,
                                start + lag_tail);
            };
            ub = currentUb();
            for (size_t m = 0; m < task.modes.size(); ++m) {
                const Mode &mode = task.modes[m];
                // start >= est: the test below would drop it anyway.
                if (option_bound(est, est + mode.duration) >= ub)
                    continue;
                Time start = profile_.earliestStart(mode, est);
                if (start < 0)
                    continue;
                Time complete = start + mode.duration;
                Time bound = option_bound(start, complete);
                if (bound >= ub)
                    continue; // Cannot beat the incumbent.
                options.push_back(
                    {static_cast<int>(m), start, complete, bound});
            }
            std::sort(options.begin(), options.end(),
                      [](const Option &a, const Option &b) {
                          return a.bound < b.bound;
                      });

            for (const Option &opt : options) {
                Decision d{t, opt.mode, opt.start};
                if (spill) {
                    publish(d, std::max(node_bound, opt.bound));
                    continue;
                }
                apply(d);
                dfs(std::max(makespan, opt.complete));
                undo();
                if (abortRequested())
                    return;
                // Re-check the prune: the incumbent may have
                // improved (here or on another worker).
                if (opt.bound >= currentUb())
                    break; // Options are bound-sorted.
            }
        }
        // Record only when this node's subtree was really explored:
        // not when children were spilled for stealing, and not on a
        // budget/gap unwind (those return early above). The bound is
        // the incumbent at *this* moment; it only decreases
        // afterwards, so the no-good stays valid for every other
        // worker too.
        if (scheduled_ > 0 && !spill)
            recordNogood(currentUb());
        ++backtracks_;
    }

    /** Replay a subproblem's prefix, search it, and unwind. */
    void
    process(const Subproblem &sub)
    {
        // `sub.bound >= currentUb()` means the subtree is already
        // pruned by a better incumbent; otherwise search it.
        if (sub.bound < currentUb()) {
            Time makespan = 0;
            for (const Decision &d : sub.prefix)
                makespan = std::max(makespan, apply(d));
            dfs(makespan);
            for (size_t i = 0; i < sub.prefix.size(); ++i)
                undo();
        }
        shared_.aggregator.remove(sub.bound);
        // Only now does the subproblem leave the in-flight set: any
        // children it spilled are already counted, so `pending` can
        // never read 0 while work is unexplored.
        shared_.pending.fetch_sub(1, std::memory_order_acq_rel);
        sharedGapCheck();
    }

    /**
     * Take the top half of some victim's deque: the extra
     * subproblems queue locally, the first (shallowest, so largest)
     * is returned for immediate processing.
     */
    bool
    trySteal(Subproblem *out)
    {
        for (int i = 1; i < shared_.threads; ++i) {
            int victim = (id_ + i) % shared_.threads;
            std::vector<Subproblem> stolen;
            if (shared_.deques[victim].steal(&stolen) == 0)
                continue;
            ++steals_;
            *out = std::move(stolen.front());
            for (size_t k = stolen.size(); k > 1; --k)
                shared_.deques[id_].push(
                    std::move(stolen[k - 1]));
            return true;
        }
        return false;
    }

    /**
     * Nothing to do right now: advertise idleness (spill heuristic)
     * and wait until work appears or the tree is exhausted.
     * `pending` counts claimed subproblems until their process()
     * returns, so a single load of 0 proves completion — there is no
     * idle-count handshake for a claim to race against. Waiting
     * spins briefly, then parks on the shared condition variable
     * with an exponentially growing timed wait (work can be
     * in-flight on other workers with nothing stealable for long
     * stretches, and burning a core on yield() would hold a
     * ThreadBudget slot the sweep pool could use).
     */
    bool
    waitForWork(Subproblem *out)
    {
        shared_.idle.fetch_add(1, std::memory_order_acq_rel);
        bool got = false;
        int spins = 0;
        int64_t sleep_us = kIdleSleepMinUs;
        while (!abortRequested()) {
            if (shared_.pending.load(std::memory_order_acquire) ==
                0) {
                shared_.allDone.store(true,
                                      std::memory_order_release);
                shared_.wake();
                break;
            }
            // Poll the wall-clock budgets while starving: a parked
            // worker otherwise only learns of the deadline from a
            // busy worker's nodeAdmission, and when every busy
            // worker is deep inside a slow node-bound pass the
            // cut can arrive arbitrarily late.
            if (shared_.expired()) {
                shared_.limitHit.store(true,
                                       std::memory_order_relaxed);
                shared_.wake();
                break;
            }
            if (shared_.deques[id_].pop(out) || trySteal(out)) {
                got = true;
                break;
            }
            if (++spins <= kIdleSpinIters) {
                std::this_thread::yield();
                continue;
            }
            std::unique_lock<std::mutex> lock(shared_.waitMutex);
            if (!abortRequested() &&
                shared_.pending.load(std::memory_order_acquire) > 0)
                shared_.waitCv.wait_for(
                    lock, std::chrono::microseconds(sleep_us));
            sleep_us = std::min(sleep_us * 2, kIdleSleepMaxUs);
        }
        shared_.idle.fetch_sub(1, std::memory_order_acq_rel);
        return got;
    }

    /** One feasible (mode, start) branch choice for a task. */
    struct Option
    {
        int mode;
        Time start;
        Time complete;
        /** No schedule through this option ends before it. */
        Time bound;
    };

    /** One depth's branching scratch (see dfs). */
    struct Depth
    {
        std::vector<int> order;
        std::vector<Option> options;
    };

    /**
     * Heap bytes currently committed to this worker's scratch: the
     * per-depth vectors and the profile's occupancy storage.
     */
    int64_t
    scratchHeapBytes() const
    {
        size_t bytes = profile_.heapBytes();
        for (const Depth &depth : depths_)
            bytes += depth.order.capacity() * sizeof(int) +
                     depth.options.capacity() * sizeof(Option);
        return static_cast<int64_t>(bytes);
    }

    Shared &shared_;
    const Model &model_;
    const SearchLimits &limits_;
    const int id_;
    /** Private incumbent, no-goods and exact node budget. */
    const bool private_;
    const int n_;

    Profile profile_;
    NodeBound bound_;
    /**
     * Branching scratch indexed by scheduled_: a node refills its
     * depth's vectors and never shrinks them, and its children use
     * the next depth's, so a refill never touches a live frame's.
     */
    std::vector<Depth> depths_;
    int64_t scratchBaseline_ = 0;
    std::vector<Assignment> assign_;
    std::vector<Time> end_;
    std::vector<int> remainingPreds_;
    std::vector<int> eligible_;
    /** Position of each task inside eligible_, or -1 when absent. */
    std::vector<int> eligiblePos_;
    std::vector<Decision> path_;
    int scheduled_ = 0;

    /** Zobrist key of the current placement set (see nogood.hh). */
    uint64_t hash_ = 0;
    /** The crew's store, or the thread's table once recorded into. */
    NogoodStore *nogoods_ = nullptr;
    int64_t nogoodHits_ = 0;
    int64_t nogoodsRecorded_ = 0;

    // Private incumbent (single thread).
    Time privUb_ = 0;
    bool privFound_ = false;
    ScheduleVec privBest_;
    bool localStop_ = false;
    bool localLimit_ = false;

    int64_t nodes_ = 0;
    int64_t backtracks_ = 0;
    int64_t solutions_ = 0;
    int64_t steals_ = 0;
    int64_t published_ = 0;
};

/** Fold one worker's counters into the result. */
void
mergeWorker(SearchResult &result, const Worker &worker)
{
    result.nodes += worker.nodes();
    result.backtracks += worker.backtracks();
    result.solutions += worker.solutions();
    result.steals += worker.steals();
    result.subproblems += worker.published();
    result.nogoodHits += worker.nogoodHits();
    result.nogoodsRecorded += worker.nogoodsRecorded();
    result.scratchBytes += worker.scratchBytes();
    mergePropagatorStats(result.propagators, worker.propagators());
}

/** Per-search metrics flush, once per search (not per node). */
void
flushMetrics(const SearchResult &result)
{
    metrics::counter("cp.search.nodes").add(result.nodes);
    metrics::counter("cp.search.backtracks").add(result.backtracks);
    metrics::counter("cp.search.solutions").add(result.solutions);
    if (result.threadsUsed > 1) {
        metrics::counter("cp.par.searches").add(1);
        metrics::counter("cp.par.steals").add(result.steals);
        metrics::counter("cp.par.subproblems").add(result.subproblems);
    }
    metrics::counter("cp.nogood.hits").add(result.nogoodHits);
    metrics::counter("cp.nogood.recorded").add(result.nogoodsRecorded);
    int64_t invocations = 0;
    int64_t prunings = 0;
    for (const PropagatorStats &stats : result.propagators) {
        invocations += stats.invocations;
        prunings += stats.prunings;
    }
    metrics::counter("cp.propagations").add(invocations);
    metrics::counter("cp.prunings").add(prunings);
}

/**
 * Single thread: one private-incumbent worker from the root. The
 * worker's incumbent already includes the warm start, so only a
 * strict improvement over it carries a schedule.
 */
SearchResult
runSerial(Shared &shared, SearchResult result)
{
    Worker worker(shared, 0);
    worker.searchFromRoot();
    mergeWorker(result, worker);
    if (worker.privateFound() &&
        (!result.foundSolution ||
         worker.privateUb() < result.bestMakespan)) {
        result.foundSolution = true;
        result.bestMakespan = worker.privateUb();
        result.best = worker.privateBest();
    }
    result.exhausted =
        !worker.stoppedOnLimit() && !worker.stoppedOnGap();
    return result;
}

/** Two or more threads: a work-stealing crew from the root. */
SearchResult
runParallel(Shared &shared, SearchResult result)
{
    int threads = shared.threads;
    shared.nogoods = std::make_unique<NogoodStore>();
    Subproblem root;
    root.bound = std::max<Time>(0, shared.limits.lowerBound);
    shared.aggregator.add(root.bound);
    shared.pending.store(1, std::memory_order_relaxed);
    shared.deques[0].push(std::move(root));

    std::vector<std::unique_ptr<Worker>> workers;
    workers.reserve(static_cast<size_t>(threads));
    for (int w = 0; w < threads; ++w)
        workers.push_back(std::make_unique<Worker>(shared, w));

    std::vector<std::thread> crew;
    crew.reserve(static_cast<size_t>(threads) - 1);
    for (int w = 1; w < threads; ++w) {
        Worker *worker = workers[static_cast<size_t>(w)].get();
        crew.emplace_back([worker, w] {
            trace::setThreadName(format("cp-worker-%d", w));
            worker->runStealing();
        });
    }
    workers[0]->runStealing();
    for (std::thread &thread : crew)
        thread.join();

    for (const auto &worker : workers)
        mergeWorker(result, *worker);
    if (shared.incumbent.found()) {
        result.foundSolution = true;
        result.bestMakespan = shared.incumbent.ub();
        if (shared.incumbent.improvements() > 0)
            result.best = shared.incumbent.best();
    }
    result.exhausted =
        !shared.gapStop.load(std::memory_order_acquire) &&
        !shared.limitHit.load(std::memory_order_acquire);
    return result;
}

} // anonymous namespace

SearchResult
branchAndBound(const Model &model, const ScheduleVec *warm_start,
               const SearchLimits &limits)
{
    const int threads = std::max(1, limits.threads);
    trace::Span span("cp.search",
                     trace::Arg::intArg("tasks", model.numTasks()));
    if (threads > 1)
        span.arg(trace::Arg::intArg("threads", threads));

    Time initial_ub = model.horizon() + 1;
    if (warm_start)
        initial_ub = warm_start->makespan(model);
    Shared shared(model, limits, initial_ub, warm_start, threads);

    SearchResult result;
    result.threadsUsed = threads;
    if (warm_start) {
        result.foundSolution = true;
        result.best = *warm_start;
        result.bestMakespan = initial_ub;
    }

    if (result.foundSolution && gapReached(initial_ub, limits)) {
        // A warm start already inside the target gap means no tree
        // walk at all; the telemetry still names every rule.
        Worker idle(shared, 0);
        mergeWorker(result, idle);
        result.exhausted = false;
    } else if (threads == 1) {
        result = runSerial(shared, std::move(result));
    } else if (Clock::now() >= limits.deadline ||
               limits.maxSeconds <= 0.0) {
        // A deadline that has already passed (or a zero wall-clock
        // budget) cuts a crew before it starts. Without this check a
        // tiny warm-started tree can exhaust within the first budget
        // batch - before any worker polls the clock - and a run the
        // caller cut would then claim `exhausted`, which the solver
        // treats as an optimality proof.
        result.exhausted = false;
    } else {
        result = runParallel(shared, std::move(result));
    }

    span.arg(trace::Arg::intArg("nodes", result.nodes));
    if (threads > 1)
        span.arg(trace::Arg::intArg("steals", result.steals));
    else
        span.arg(trace::Arg::intArg("backtracks", result.backtracks));
    flushMetrics(result);
    return result;
}

} // namespace cp
} // namespace hilp
