"""Closed- and open-loop HTTP load generation with the public ``HTTPClient``.

Every request becomes one :class:`Outcome`.  The served envelope object is
kept as received; canonicalising it for the correctness check happens
after the timed phase, so it costs the measured run nothing.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.exceptions import MissingDataError, QueryError

_RIDS = itertools.count(1)

#: What ``HTTPClient`` raises for the API's client-error statuses; any
#: other failure is an error.
CLIENT_ERRORS = ((QueryError, "400"), (MissingDataError, "422"))


def error_status(error: Exception, mapping=CLIENT_ERRORS) -> str:
    for kind, status in mapping:
        if isinstance(error, kind):
            return status
    return "error"


@dataclass
class Outcome:
    """One request: what was asked, when, and what came back.

    ``due`` is when the request should have been sent (its send time in a
    closed loop, its slot in an open loop's schedule), so ``done - due``
    counts the wait a stalled generator imposes on later requests.
    ``status`` is ``"ok"`` (an envelope), ``"400"`` / ``"422"`` (an engine
    error, with its message in ``payload``) or ``"error"`` (anything else,
    always a failure).
    """

    index: int
    due: float
    sent: float
    done: float
    status: str
    payload: Any = None

    @property
    def latency(self) -> float:
        return self.done - self.due


def send(client, dataset: str, query, index: int, due: float,
         recorder=None) -> Outcome:
    """Send one ``explain`` and classify the answer."""
    sent = time.perf_counter()
    record = None
    adopt = None
    if recorder is not None and recorder.enabled:
        adopt = recorder.adopt(f"r{next(_RIDS)}", None)
        adopt.__enter__()
        record = recorder.open("client.request", "client")
    try:
        status, payload = "ok", client.explain(dataset, query).envelope
    except Exception as error:  # classified; "error" counts as failed
        status = error_status(error)
        payload = str(error) if status != "error" else \
            f"{type(error).__name__}: {error}"
    finally:
        if adopt is not None:
            recorder.close(record)
            adopt.__exit__(None, None, None)
    return Outcome(index, due, sent, time.perf_counter(), status, payload)


def closed_loop(client, dataset: str, queries: Sequence, clients: int,
                recorder=None, seconds: Optional[float] = None
                ) -> List[Outcome]:
    """``clients`` threads each send their next query as soon as the last
    one is answered, taking queries in order from the shared list, until
    the list runs out or (when given) ``seconds`` have passed."""
    outcomes: List[Outcome] = []
    lock = threading.Lock()
    cursor = iter(range(len(queries)))
    deadline = None if seconds is None else time.perf_counter() + seconds

    def worker() -> None:
        while deadline is None or time.perf_counter() < deadline:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            outcome = send(client, dataset, queries[index], index,
                           time.perf_counter(), recorder)
            with lock:
                outcomes.append(outcome)

    _run_threads(worker, clients)
    return outcomes


@dataclass
class Step:
    """One open-loop rate step."""

    rate: float
    outcomes: List[Outcome]
    scheduled: int
    missed: int
    max_lateness: float


def open_loop(client, dataset: str, queries: Sequence, mix: Sequence[int],
              rate: float, seconds: float, senders: int, grace: float,
              recorder=None) -> Step:
    """Send ``mix`` (indices into ``queries``) at ``rate`` per second for
    ``seconds``, from ``senders`` threads.

    Slot ``i`` is due at ``start + i / rate``.  A sender takes the next
    slot, sleeps until it is due (or sends at once when behind), and
    records lateness.  Slots still unsent ``grace`` seconds after the step
    ends are abandoned and counted as missed: the backlog grew.
    """
    scheduled = min(len(mix), int(round(rate * seconds)))
    outcomes: List[Outcome] = []
    lock = threading.Lock()
    cursor = iter(range(scheduled))
    start = time.perf_counter() + 0.01
    cutoff = start + seconds + grace
    state = {"missed": 0, "late": 0.0}

    def worker() -> None:
        while True:
            with lock:
                slot = next(cursor, None)
            if slot is None:
                return
            due = start + slot / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            elif now > cutoff:
                with lock:
                    state["missed"] += 1
                continue
            index = mix[slot]
            outcome = send(client, dataset, queries[index], index, due,
                           recorder)
            with lock:
                state["late"] = max(state["late"], outcome.sent - due)
                outcomes.append(outcome)

    _run_threads(worker, senders)
    return Step(rate, outcomes, scheduled, state["missed"], state["late"])


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target, daemon=True)
               for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


@dataclass
class Update:
    """One ``append_rows`` call and the re-warm job it started."""

    batch: int
    sent: float
    acked: float
    rewarmed: Optional[float]
    state: str


def append_and_rewarm(client, dataset: str, rows, batch: int,
                      timeout: float) -> Update:
    """Append ``rows``, then poll the re-warm job until it ends."""
    sent = time.perf_counter()
    reply = client.append_rows(dataset, rows)
    acked = time.perf_counter()
    job = reply.get("rewarm_job")
    if job is None:
        return Update(batch, sent, acked, None, "NO_JOB")
    status = client.wait_job(job, timeout=timeout, poll_seconds=0.01)
    return Update(batch, sent, acked, time.perf_counter(),
                  str(status.get("state")))
