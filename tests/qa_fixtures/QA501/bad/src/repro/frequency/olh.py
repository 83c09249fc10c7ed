"""A container outside reports.py with to_block() but no v1 codec."""


class BlockOnlyReports:
    def __init__(self, seeds=()):
        self.seeds = seeds

    def to_block(self):
        return {"kind": "olh", "seeds": self.seeds}
