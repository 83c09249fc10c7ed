"""A complete accumulator: parse/fold/merge/snapshots, all stats keyed."""


class ServerAccumulator:
    """Stand-in for the real abstract base."""


class CounterAccumulator(ServerAccumulator):
    def __init__(self):
        self._total = 0.0
        self._count = 0
        self.domain = 16  # public config: exempt from the key check

    def _parse(self, block):
        return list(block.columns["array"])

    def _fold(self, parsed):
        self._total += sum(parsed)
        self._count += len(parsed)

    def merge(self, other):
        self._total += other._total
        self._count += other._count
        return self

    def state_dict(self):
        return {"total": self._total, "count": self._count}

    def load_state(self, state):
        self._total = float(state["total"])
        self._count = int(state["count"])
        return self


class ScaledCounterAccumulator(CounterAccumulator):
    """Inherits the whole surface; adds no new statistics."""

    def estimate(self):
        return self._total / self._count
