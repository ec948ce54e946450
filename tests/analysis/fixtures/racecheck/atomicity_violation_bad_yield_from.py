"""The lost update survives when the yield sits inside a ``yield from``
stage: control still leaves the body between the read and the write."""

from repro.sim.events import Sleep


class Tally:
    def record(self):
        seen = self.total
        yield from self._wait()
        self.total = seen + 1

    def _wait(self):
        yield Sleep(1.0)

    def reset(self):
        self.total = 0
        yield Sleep(1.0)
