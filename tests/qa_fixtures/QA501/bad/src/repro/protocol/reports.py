"""Report containers with codec gaps.

``OrphanReports`` is wired nowhere; ``HalfWiredReports`` has v1 JSON
entries but no ``to_block()``, so the conversion cannot carry it to a
v2 frame or an accumulator.
"""


class SampledNumericReports:
    def __init__(self, cols=(), values=()):
        self.cols = cols
        self.values = values

    def to_block(self):
        return {"kind": "sampled-numeric", "cols": self.cols}


class OrphanReports:
    def __init__(self, blob=b""):
        self.blob = blob


class HalfWiredReports:
    def __init__(self, items=()):
        self.items = items


def to_block(batch):
    if hasattr(batch, "to_block"):
        return batch.to_block()
    return {"kind": "array", "array": batch}
