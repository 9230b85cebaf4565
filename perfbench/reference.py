"""Machine speed, measured with fixed pieces of work that do not use eventlift.

The shared machines this benchmark runs on change speed by tens of percent
from one minute to the next, for the same work and with nothing else running
in the machine.  The benchmark therefore samples a fixed reference unit
between its operations and also reports timings scaled to a reference speed,
which cancels most of that drift.  Different kinds of work slow down by
different amounts, so each workload samples a unit that does the same kind
of work as its hot loop, written here in plain numpy and Python:

* ``panel``: normal draws, a column recursion and pooled sums (``mc_ar``);
* ``mlp``: mini-batch forward and backward passes of a small relu net
  (``retail_eval``);
* ``csv``: writing and parsing dated CSV rows (``cli_files``).
"""

from __future__ import annotations

import csv
import datetime
import io
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Seconds one unit of each kind takes at the reference speed: a 2-vCPU
# Intel Xeon VM at 2.1 GHz with numpy 2.4.6 and OpenBLAS 0.3.31.
UNIT_S = {"panel": 0.02, "mlp": 0.004, "csv": 0.005}


class Reference:
    """Accumulates reference units of one kind and the seconds they took.

    With ``threads`` > 1 each sample runs units on that many threads at once,
    as the workload's own worker threads do.
    """

    def __init__(self, kind: str, threads: int = 1):
        self.kind = kind
        self.threads = threads
        self.unit = getattr(self, f"_{kind}")
        rng = np.random.default_rng(0)
        self.layers = [(rng.standard_normal(s) * 0.1, np.zeros(s[1]))
                       for s in ((90, 64), (64, 64), (64, 30))]
        self.x = rng.standard_normal((1341, 90))
        self.y = rng.standard_normal((1341, 30))
        self.mask = rng.random((1341, 30)) < 0.05
        self.start = datetime.date(2013, 1, 1)
        self.units = 0
        self.seconds = 0.0

    def _panel(self) -> None:
        rng = np.random.default_rng(1)
        eps = rng.standard_normal((5000, 104))
        v = np.empty_like(eps)
        v[:, 0] = eps[:, 0]
        for t in range(1, v.shape[1]):
            v[:, t] = 0.5 * v[:, t - 1] + eps[:, t]
        float(np.sum(v[:, :-1] * v[:, 1:]) / np.sum(v[:, :-1] ** 2))

    def _mlp(self) -> None:
        perm = np.random.default_rng(2).permutation(len(self.x))
        for start in range(0, 12 * 64, 64):
            idx = perm[start : start + 64]
            acts = [self.x[idx]]
            for li, (w, b) in enumerate(self.layers):
                z = acts[-1] @ w + b
                acts.append(np.maximum(z, 0.0) if li < len(self.layers) - 1 else z)
            diff = acts[-1] - self.y[idx]
            weights = np.where(self.mask[idx], 0.1, 1.0)
            float((weights * np.abs(diff)).sum(axis=1).mean())
            delta = weights * np.sign(diff) / len(idx)
            grads = []
            for li in reversed(range(len(self.layers))):
                if li < len(self.layers) - 1:
                    delta = delta * (acts[li + 1] > 0)
                grads.append((acts[li].T @ delta, delta.sum(axis=0)))
                delta = delta @ self.layers[li][0].T
            np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])

    def _csv(self) -> None:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for i in range(1500):
            writer.writerow([f"s{i % 50:03d}", str(self.start + datetime.timedelta(days=i % 366)),
                             repr(i * 0.37)])
        for sid, day, value in csv.reader(io.StringIO(out.getvalue())):
            datetime.date.fromisoformat(day)
            float(value)

    def _run(self, budget_s: float) -> int:
        began = time.perf_counter()
        units = 0
        while True:
            self.unit()
            units += 1
            if time.perf_counter() - began >= budget_s:
                return units

    def sample(self, budget_s: float) -> None:
        """Run whole units for about ``budget_s`` seconds, at least one each."""
        began = time.perf_counter()
        if self.threads == 1:
            self.units += self._run(budget_s)
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                self.units += sum(pool.map(self._run, [budget_s] * self.threads))
        self.seconds += time.perf_counter() - began

    @property
    def speed(self) -> float:
        """Machine speed relative to the reference speed (2.0 = twice as fast)."""
        return UNIT_S[self.kind] * self.units / (self.seconds * self.threads)
