"""One report container here, with its to_block(), plus the conversion."""


class ColumnBlock:  # carrier: the columnar wire form itself, exempt
    def __init__(self, kind="", n=0, columns=None):
        self.kind = kind
        self.n = n
        self.columns = columns or {}


class SampledNumericReports:
    def __init__(self, cols=(), values=()):
        self.cols = cols
        self.values = values

    def to_block(self):
        return ColumnBlock(
            kind="sampled-numeric",
            n=len(self.cols),
            columns={"cols": self.cols, "values": self.values},
        )


def to_block(batch):
    if isinstance(batch, ColumnBlock):
        return batch
    if hasattr(batch, "to_block"):
        return batch.to_block()
    return ColumnBlock(kind="array", n=len(batch), columns={"array": batch})
