/**
 * @file
 * Analyzer fixture: R11 this-capture violations. Timer is not a
 * SimObject, so nothing keeps it alive until its queued callbacks
 * fire.
 */

namespace mcnsim::fixture {

class Timer
{
  public:
    void
    arm()
    {
        queue_.scheduleIn([this] { fire(); }, 10, "timer"); // expect: this-capture
    }

    void
    armMultiLine()
    {
        ev_ = sim_.eventQueue().schedule(
            [this] { fire(); }, // expect: this-capture
            when_);
    }

    void
    armSuppressionOutOfReach(int n)
    {
        // analyze-ok: this-capture (five lines up: the window is four)
        int a = n;
        int b = a;
        int c = b;
        int d = c;
        q_.scheduleIn([this] { fire(); }, d, "timer"); // expect: this-capture
    }

    void fire();

  private:
    EventQueue &queue_;
    EventQueue &q_;
    Simulation &sim_;
    Event *ev_ = nullptr;
    Tick when_ = 0;
};

} // namespace mcnsim::fixture
