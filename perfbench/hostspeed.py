"""How fast the host runs while the benchmark measures, from a sampling
thread.

The benchmark shares its host with other work whose load comes and goes,
so the same repetition can take a third longer from one second to the
next.  :class:`HostSampler` runs a fixed pure-Python probe loop (heap,
method calls, dict updates: the kind of work the simulator does) in short
bursts on a thread beside the measured code.  The probe never touches the
simulator, so no change to ``src/`` can move it.  The GIL interleaves the
bursts with the measured code, so they sample the host over the same
stretches of time, not before or after them.  Scaling a timed region by
the probe rate of the bursts inside it, once the bursts' own time is
taken out, reports it in seconds of a host whose probe runs at exactly
:data:`REFERENCE_RATE`, and takes the host's load out of the comparison.
"""

from __future__ import annotations

import heapq
import threading
from time import perf_counter, thread_time
from typing import Dict, List, Optional, Tuple

#: probe events per CPU second of the reference host; scaled times are
#: host seconds on a host whose probe runs exactly this fast
REFERENCE_RATE = 1_000_000.0

#: seconds between the sampler's bursts
PERIOD_S = 0.02

#: probe events per burst: about 1.5 ms on a 2-vCPU Xeon VM, so the
#: sampler takes about 7% of the measured thread's time
BURST_EVENTS = 1500


class _Unit:
    __slots__ = ("count", "table")

    def __init__(self) -> None:
        self.count = 0
        self.table: Dict[int, int] = {}

    def fire(self, key: int) -> None:
        self.count += 1
        slot = key & 1023
        self.table[slot] = self.table.get(slot, 0) + key


def probe(events: int) -> None:
    """Run the fixed probe loop for ``events`` events."""
    units = [_Unit() for _ in range(8)]
    heap = [(t, t) for t in range(64)]
    seq = len(heap)
    for _ in range(events):
        time, tag = heapq.heappop(heap)
        units[tag & 7].fire(tag * 2654435761)
        seq += 1
        heapq.heappush(heap, (time + tag % 7 + 1, seq))


class HostSampler:
    """Probe bursts on a daemon thread while the ``with`` block runs.

    Each burst records when it started (``perf_counter``) and the CPU
    time it took (``thread_time``, which leaves out any wait for the GIL).
    """

    def __init__(self) -> None:
        #: (start, CPU seconds) of every burst
        self.bursts: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="perfbench-host-sampler")

    def __enter__(self) -> "HostSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = perf_counter()
            cpu = thread_time()
            probe(BURST_EVENTS)
            self.bursts.append((start, thread_time() - cpu))

    def _window(self, begin: Optional[float],
                seconds: Optional[float]) -> List[float]:
        """CPU seconds of the bursts that started in the region; of every
        burst when ``begin`` is ``None``."""
        if begin is None or seconds is None:
            return [cpu for _start, cpu in self.bursts]
        return [cpu for start, cpu in self.bursts
                if begin <= start < begin + seconds]

    def speed(self, begin: Optional[float] = None,
              seconds: Optional[float] = None) -> Optional[float]:
        """Probe rate of the bursts that started in the region (or of
        every burst), over :data:`REFERENCE_RATE`; ``None`` if none did."""
        window = self._window(begin, seconds)
        if not sum(window):
            return None
        return len(window) * BURST_EVENTS / sum(window) / REFERENCE_RATE

    def reference_s(self, begin: float, seconds: float) -> float:
        """Seconds on the reference host of the region that starts at
        ``begin`` and lasts ``seconds``: its time less the bursts in it,
        times their speed (or the whole sampling's, if none fell in it)."""
        speed = self.speed(begin, seconds) or self.speed() or 1.0
        return (seconds - sum(self._window(begin, seconds))) * speed
