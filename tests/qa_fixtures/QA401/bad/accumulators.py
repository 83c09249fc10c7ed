"""Snapshot gaps: a missing method and a statistic state_dict drops."""


class ServerAccumulator:
    """Stand-in for the real abstract base."""


class LeakyAccumulator(ServerAccumulator):
    def __init__(self):
        self._total = 0.0
        self._hidden = 0

    def _parse(self, block):
        return list(block.columns["array"])

    def _fold(self, parsed):
        self._total += sum(parsed)
        self._hidden += len(parsed)

    def merge(self, other):
        self._total += other._total
        self._hidden += other._hidden
        return self

    def state_dict(self):
        return {"total": self._total}
