"""Layer attribution tables for the perfbench traced run.

EVENT_MODULE maps each event name the library schedules to the
source module (src/<module>/) whose code the event runs. Host time of
event names missing here is reported as ``unattributed`` rather than
dropped, so a new event name shows up instead of hiding.

COUNTERS names the stats-registry counters summed per module. Each
entry is (metric, module, group-name regex, stat name, scale). A
counter that matches no registered stat fails the run, unless its
module is absent from the workload's system (no MCN parts in a
fat-tree), because reporting a renamed counter as 0 would hide it.
"""

import re

MODULES = ("sim", "cpu", "net", "netdev", "mcn", "mem")

# Coroutine runtime events: the sim.coro_host_ms bucket.
CORO_EVENTS = ("task-spawn", "task-delay", "cv-notify")

EVENT_MODULE = {
    # sim: coroutine runtime and engine housekeeping
    "task-spawn": "sim",
    "task-delay": "sim",
    "cv-notify": "sim",
    "pool-free": "sim",
    "stat-sample": "sim",
    # cpu: every software cost the cost model charges runs in a slot
    "core.slot": "cpu",
    # mem: bandwidth arbiter, memory controller, DRAM refresh
    "bw.complete": "mem",
    "mem.mmio": "mem",
    "mem.readDone": "mem",
    "mem.sched": "mem",
    "refresh": "mem",
    # net: TCP/IP stack
    "tcp.timer": "net",
    "tcp.timewait": "net",
    "netstack.qdisc": "net",
    "icmp.pingTimeout": "net",
    # netdev: links, NICs, switches
    "link.deliver": "netdev",
    "link.ctrl": "netdev",
    "link.reorder": "netdev",
    "loop.deliver": "netdev",
    "nic.pcie": "netdev",
    "nic.pcieRx": "netdev",
    "switch.fwd": "netdev",
    "switch.ingress": "netdev",
    "fabric.hello": "netdev",
    # mcn: MCN driver, SRAM ring, ALERT_N signalling
    "alert.identify": "mcn",
    "mcn.f3retry": "mcn",
    "mcn.hostWatchdog": "mcn",
    "mcn.rxWatchdog": "mcn",
}

_CORE = r"\.cpu\.core\d+$"
_SWITCH = r"^(fabric|rack\d+\.leaf|spine\d+)$"

# One picosecond per tick: busyTicks / 1e9 is milliseconds.
COUNTERS = (
    ("cpu.slots", "cpu", _CORE, "slots", 1),
    ("cpu.busy_ms", "cpu", _CORE, "busyTicks", 1e-9),
    ("os.irqs", "os", r"\.irq$", "irqsRaised", 1),
    ("os.tasklets", "os", r"\.softirq$", "taskletsRun", 1),
    ("net.tcp_segments_out", "net", r"\.net\.tcp$", "segmentsOut", 1),
    ("net.ip_drops", "net", r"\.net$", "ipDrops", 1),
    ("net.ip_rx_packets", "net", r"\.net$", "ipRxPackets", 1),
    ("net.ip_tx_packets", "net", r"\.net$", "ipTxPackets", 1),
    ("netdev.switch_forwarded", "netdev", _SWITCH, "forwarded", 1),
    ("netdev.switch_drops", "netdev", _SWITCH, "drops", 1),
    ("netdev.nic_rx_drops", "netdev", r"\.nic$", "rxDrops", 1),
    # MCN transmit, both directions: DIMM driver (DIMM to host) and
    # the host driver's per-DIMM veth (host to DIMM).
    ("mcn.tx_packets", "mcn", r"\.mcn\d+\.eth\d+$", "txPackets", 1),
    ("mcn.tx_packets", "mcn", r"\.mcndrv\.veth\d+$", "txPackets", 1),
    ("mcn.tx_ring_full", "mcn", r"\.mcn\d+\.eth\d+$", "txRingFull", 1),
    ("mcn.tx_ring_full", "mcn", r"\.host\.mcndrv$", "rxRingFull", 1),
    ("mcn.dma_transfers", "mcn", r"\.dma\d*$", "transfers", 1),
    ("mem.bulk_flows", "mem", r"\.mem\.mc\d+\.bulk$", "bulkFlows", 1),
)

# Registry counters that only feed a ratio; not reported on their own.
RATIO_ONLY = ("net.ip_rx_packets", "net.ip_tx_packets")


def _groups_by_stat(groups):
    """{stat name: [(group name, value), ...]} for scalar stats."""
    out = {}
    for g in groups:
        for st in g["stats"]:
            if "value" in st:
                out.setdefault(st["name"], []).append((g["name"], st["value"]))
    return out


def count(groups, absent_modules):
    """Sum every COUNTERS entry over the registry groups."""
    by_stat = _groups_by_stat(groups)
    sums = {}
    for metric, module, group_re, stat, scale in COUNTERS:
        rx = re.compile(group_re)
        hits = [v for g, v in by_stat.get(stat, ()) if rx.search(g)]
        if not hits and module not in absent_modules:
            raise LookupError(
                f"counter {metric}: no stat '{stat}' in a group matching "
                f"{group_re!r}; the registry no longer has it")
        sums[metric] = sums.get(metric, 0) + sum(hits) * scale
    return sums


def split_host_time(profile):
    """Host ms and event counts per module from merged profile rows."""
    host_ms = {m: 0.0 for m in MODULES + ("unattributed",)}
    events = {m: 0 for m in MODULES + ("unattributed",)}
    coro_ms = 0.0
    task_delays = 0
    for row in profile:
        module = EVENT_MODULE.get(row["name"], "unattributed")
        host_ms[module] += row["host_ns"] / 1e6
        events[module] += row["count"]
        if row["name"] in CORO_EVENTS:
            coro_ms += row["host_ns"] / 1e6
        if row["name"] == "task-delay":
            task_delays += row["count"]
    return host_ms, events, coro_ms, task_delays
