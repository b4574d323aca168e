/**
 * @file
 * Analyzer fixture: R11 clean counterpart. The owner is not a
 * SimObject: its one queued [this] callback is cancelled in the
 * destructor and says so; other lambdas are not this rule's
 * business.
 */

#include <algorithm>
#include <vector>

namespace mcnsim::fixture {

class Sampler
{
  public:
    ~Sampler() { queue_.deschedule(ev_); }

    void
    rearm()
    {
        // analyze-ok: this-capture (~Sampler deschedules ev_)
        ev_ = queue_.scheduleIn(
            // The comment lines stretch the gap to the window's
            // full four lines.
            [this] { rearm(); }, period_, "sampler");
    }

    void
    post(int v)
    {
        // Capturing by value owns what the callback uses.
        queue_.scheduleIn([v] { use(v); }, 1, "post");
    }

    void
    sortPeers()
    {
        // [this] outside an event-queue call is fine.
        std::sort(peers_.begin(), peers_.end(),
                  [this](int a, int b) { return rank(a) < rank(b); });
    }

    int rank(int peer) const;
    static void use(int v);

  private:
    EventQueue &queue_;
    Event *ev_ = nullptr;
    Tick period_ = 1000;
    std::vector<int> peers_;
};

} // namespace mcnsim::fixture
