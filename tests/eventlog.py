"""Event logs for tests, written as the lines of a log file."""

import json

from feedrank.events import EVENT_KINDS


def line(kind, item_id, event_id, ts, account=""):
    """One line of an event log."""
    return json.dumps({"kind": kind, "item_id": item_id, "event_id": event_id,
                       "ts": ts, "account": account})


def rows(batch):
    """The events of a batch as (kind, item_id, event_id, ts, account) tuples."""
    return list(zip([EVENT_KINDS[k] for k in batch.kind], batch.item_id, batch.event_id,
                    batch.ts.tolist(), batch.account))
