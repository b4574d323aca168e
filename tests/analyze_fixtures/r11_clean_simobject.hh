/**
 * @file
 * Analyzer fixture: R11 clean, SimObject owner. The Simulation keeps
 * a SimObject alive until its queue drains, so its queued callbacks
 * may capture [this].
 */

#pragma once

namespace mcnsim::fixture {

class Watchdog : public SimObject
{
  public:
    void
    startup()
    {
        eventQueue().scheduleIn([this] { tick(); }, epoch_, "watchdog");
    }

    void tick();

  private:
    Tick epoch_ = 1000;
};

} // namespace mcnsim::fixture
