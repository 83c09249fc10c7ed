"""Report containers, one of them without a ``to_block()``.

``OrphanReports`` defines no ``to_block()``, so the conversion cannot
carry it to either wire format or an accumulator.
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


def to_block(batch):
    if hasattr(batch, "to_block"):
        return batch.to_block()
    return {"kind": "array", "array": batch}
