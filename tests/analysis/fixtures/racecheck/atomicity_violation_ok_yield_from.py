"""Re-reading after the ``yield from`` stage makes check and write
atomic."""

from repro.sim.events import Sleep


class Tally:
    def record(self):
        if self.total < 10:
            yield from self._wait()
            if self.total < 10:
                self.total = self.total + 1

    def _wait(self):
        yield Sleep(1.0)

    def reset(self):
        self.total = 0
        yield Sleep(1.0)
