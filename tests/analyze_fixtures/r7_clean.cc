/**
 * @file
 * Analyzer fixture: R7 clean counterpart. Every emit sits behind a
 * one-branch gate, or carries a reason.
 */

namespace mcnsim::fixture {

namespace Trace {
bool anyActive();
bool enabled(const char *flag);
void emit(const char *flag, const char *msg);
} // namespace Trace

struct Tracer
{
    bool active();
};

void
rightAnyActiveGate()
{
    if (Trace::anyActive() && Trace::enabled("Event")) [[unlikely]]
        Trace::emit("Event", "dispatch");
}

void
rightActiveGateAbove(Tracer &t, int n)
{
    if (!t.active())
        return;
    int a = n + 1;
    int b = a * 2;
    if (b)
        Trace::emit("NIC", "gated five lines up");
}

void
rightAnnotated()
{
    // analyze-ok: trace-gate (fatal path: always dumps the ring)
    Trace::emit("Event", "fatal");
}

} // namespace mcnsim::fixture
