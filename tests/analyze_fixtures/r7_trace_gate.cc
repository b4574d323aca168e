/**
 * @file
 * Analyzer fixture: R7 trace-gate violations. Trace::emit() with no
 * Trace::anyActive()/active() gate within five lines costs an
 * unpredictable call on the disabled-tracing hot path.
 */

namespace mcnsim::fixture {

namespace Trace {
bool anyActive();
void emit(const char *flag, const char *msg);
} // namespace Trace

void
wrongUngated()
{
    Trace::emit("NIC", "rx"); // expect: trace-gate
}

void
wrongGateOutOfReach(int n)
{
    const bool on = Trace::anyActive();
    int a = n + 1;
    int b = a * 2;
    int c = b - 3;
    int d = c / 4;
    int e = d % 5;
    if (on && e)
        Trace::emit("NIC", "late"); // expect: trace-gate
}

void
wrongSuppressionOutOfReach()
{
    // analyze-ok: trace-gate (two lines up: the window is one line)
    int unused = 0;
    Trace::emit("TCP", "rto"); // expect: trace-gate
    (void)unused;
}

} // namespace mcnsim::fixture
