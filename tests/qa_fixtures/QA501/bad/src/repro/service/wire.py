"""Codec missing OrphanReports and BlockOnlyReports."""

from repro.protocol.reports import HalfWiredReports, SampledNumericReports


def encode_reports(reports):
    if isinstance(reports, SampledNumericReports):
        return {"type": "sampled-numeric", "cols": list(reports.cols)}
    if isinstance(reports, HalfWiredReports):
        return {"type": "half-wired", "items": list(reports.items)}
    raise TypeError(f"cannot encode report container {type(reports)}")


def decode_reports(payload):
    if payload["type"] == "sampled-numeric":
        return SampledNumericReports(cols=payload["cols"])
    if payload["type"] == "half-wired":
        return HalfWiredReports(items=payload["items"])
    raise TypeError(f"cannot decode report payload {payload['type']}")
