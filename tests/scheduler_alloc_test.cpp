// Zero heap allocations per small event (DESIGN.md §9).  This executable
// replaces the global operator new with a counting one, so the guarantee is
// measured rather than assumed; the replacement is process-wide, which is why
// these tests have a binary of their own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/packet.h"
#include "sim/scheduler.h"
#include "util/contract.h"
#include "util/time.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n)) return p;
    throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
    return ::operator new(n, t);
}
// Not inlined: once GCC inlines a replacement delete next to a `new`, it
// flags the free() of operator-new memory (-Wmismatched-new-delete), although
// the replacement new above gets that memory from malloc().
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}

namespace bb::sim {
namespace {

constexpr std::int64_t kEvents = 200'000;

template <typename F>
std::uint64_t allocations_during(F&& body) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    body();
    return g_allocs.load(std::memory_order_relaxed) - before;
}

// The BB_AUDIT walker builds a mark array on every run_until() and cancel()
// by design, and walks the whole arena each time.
#if BB_AUDIT_ENABLED
#define SKIP_UNDER_AUDIT() GTEST_SKIP() << "BB_AUDIT walkers allocate by design"
#else
#define SKIP_UNDER_AUDIT() static_cast<void>(0)
#endif

// Self-rescheduling tick, the simulator's dominant event shape: the
// scheduler, a counter and `Words` words of payload, the first of which is
// the event limit.
template <std::size_t Words>
struct Tick {
    Scheduler* sched;
    std::int64_t* count;
    std::int64_t words[Words];
    void operator()() const {
        if (++*count < words[0]) sched->schedule_after(microseconds(1), Tick{*this});
    }
};
static_assert(sizeof(Tick<1>) == 24);  // [this] plus two words
static_assert(sizeof(Tick<4>) == 48);  // the inline capture the scheduler promises

template <std::size_t Words>
void expect_tick_allocates_nothing() {
    Scheduler sched;
    sched.reserve(64);
    std::int64_t count = 0;
    // Warm-up: sizes the arena and registers the scheduler's obs statics.
    sched.schedule_at(sched.now(), Tick<Words>{&sched, &count, {1000}});
    sched.run();
    count = 0;
    const std::uint64_t allocs = allocations_during([&] {
        sched.schedule_at(sched.now(), Tick<Words>{&sched, &count, {kEvents}});
        sched.run();
    });
    EXPECT_EQ(count, kEvents);
    EXPECT_EQ(allocs, 0u) << sizeof(Tick<Words>) << "-byte capture";
}

TEST(SchedulerAllocations, SelfReschedulingTickAllocatesNothing) {
    SKIP_UNDER_AUDIT();
    expect_tick_allocates_nothing<1>();
    expect_tick_allocates_nothing<4>();
}

// Timer churn: a spread of future timers, 80% cancelled, then drained (the
// TCP RTO / delayed-ACK pattern), on a scheduler reserved for all of them.
TEST(SchedulerAllocations, ScheduleCancelChurnAllocatesNothing) {
    SKIP_UNDER_AUDIT();
    Scheduler sched;
    sched.reserve(static_cast<std::size_t>(kEvents));
    sched.schedule_at(sched.now(), [] {});  // warm-up: obs statics
    sched.run();
    std::vector<EventId> ids;
    ids.reserve(static_cast<std::size_t>(kEvents));
    std::int64_t fired = 0;
    const std::uint64_t allocs = allocations_during([&] {
        const TimeNs base = sched.now();
        for (std::int64_t i = 0; i < kEvents; ++i) {
            const std::int64_t spread = (i * 7919) % 100'000;
            ids.push_back(sched.schedule_at(base + microseconds(spread + 1), [&fired] { ++fired; }));
        }
        for (std::int64_t i = 0; i < kEvents; ++i) {
            if (i % 5 != 0) sched.cancel(ids[static_cast<std::size_t>(i)]);
        }
        sched.run();
    });
    EXPECT_EQ(fired, kEvents / 5);
    EXPECT_EQ(sched.live_events(), 0u);
    EXPECT_EQ(allocs, 0u);
}

// Re-arming one far-out timer: schedule, cancel, repeat.  The heap compacts
// its stale tickets and the arena recycles the slot, so after a warm-up the
// churn neither allocates nor grows.
TEST(SchedulerAllocations, RearmedTimerAllocatesNothing) {
    SKIP_UNDER_AUDIT();
    Scheduler sched;
    const auto rearm = [&sched](std::int64_t times) {
        for (std::int64_t i = 0; i < times; ++i) {
            sched.cancel(sched.schedule_after(seconds_i(60), [] {}));
        }
    };
    rearm(1000);
    const std::size_t arena = sched.arena_slots();
    const std::uint64_t allocs = allocations_during([&] { rearm(kEvents); });
    sched.run();
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(sched.arena_slots(), arena);
    EXPECT_EQ(sched.executed_events(), 0u);
}

// Pooled packet delivery: a relay hands every packet it gets back to the
// scheduler, so one packet hops kEvents times through deliver_after().
class Relay final : public PacketSink {
public:
    Relay(Scheduler& sched, std::int64_t hops) : sched_{sched}, hops_left_{hops} {}
    void accept(const Packet& pkt) override {
        if (--hops_left_ > 0) sched_.deliver_after(microseconds(10), pkt, *this);
    }
    [[nodiscard]] std::int64_t hops_left() const noexcept { return hops_left_; }

private:
    Scheduler& sched_;
    std::int64_t hops_left_;
};

TEST(SchedulerAllocations, PooledPacketDeliveryAllocatesNothing) {
    SKIP_UNDER_AUDIT();
    Scheduler sched;
    sched.reserve(64);
    Packet pkt;
    pkt.size_bytes = 1500;
    Relay warm{sched, 1000};
    sched.deliver_after(microseconds(10), pkt, warm);
    sched.run();
    Relay relay{sched, kEvents};
    const std::uint64_t allocs = allocations_during([&] {
        sched.deliver_after(microseconds(10), pkt, relay);
        sched.run();
    });
    EXPECT_EQ(relay.hops_left(), 0);
    EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace bb::sim
