# Networked LDP ingestion service (repro.service) with the repro.obs
# observability surface: GET /metrics (Prometheus text exposition),
# structured JSON logs on stderr, SIGTERM graceful drain.
#
#   docker build -t repro-service .
#   docker run -p 8321:8321 repro-service
#
# `docker stop` sends SIGTERM: the server answers 503 to new batches,
# writes a final checkpoint into the snapshot volume, and exits 0 — no
# reports accepted-but-unpersisted are lost.  Snapshots a `--shards`
# server wrote to the volume still boot: their per-shard accumulators
# fold into one.
FROM python:3.12-slim

RUN pip install --no-cache-dir numpy

WORKDIR /app
COPY src/ src/
COPY examples/ examples/
ENV PYTHONPATH=/app/src \
    PYTHONUNBUFFERED=1

# Default campaign spec: generated at build time so the container runs
# out of the box; mount /specs and point --spec/--campaigns there for
# real deployments.
RUN python -c "import json; from repro.protocol import Protocol; \
    json.dump(Protocol.frequency(1.0, domain=32).spec.to_dict(), \
    open('/app/default-spec.json', 'w'))"

VOLUME /snapshots
EXPOSE 8321

# Stop gracefully (drain) before the 30s docker-stop kill window.
STOPSIGNAL SIGTERM

CMD ["python", "-m", "repro.service", \
     "--spec", "/app/default-spec.json", \
     "--host", "0.0.0.0", "--port", "8321", \
     "--snapshot-dir", "/snapshots", \
     "--checkpoint-every", "100", \
     "--log-format", "json"]
