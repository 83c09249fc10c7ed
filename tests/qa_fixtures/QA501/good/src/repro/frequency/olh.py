"""A container defined outside reports.py: its to_block() is all it needs."""

from repro.protocol.reports import ColumnBlock


class OLHReports:
    def __init__(self, seeds=(), buckets=()):
        self.seeds = seeds
        self.buckets = buckets

    def to_block(self):
        return ColumnBlock(
            kind="olh",
            n=len(self.seeds),
            columns={"seeds": self.seeds, "buckets": self.buckets},
        )
