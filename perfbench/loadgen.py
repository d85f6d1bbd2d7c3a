"""Open-loop load generator for the socket deployment.

One process, one connection, two threads: a sender that sends frame i when it
is due, whether or not earlier answers have come back, and the receiving
thread that called `drive`. Latency counts from each frame's due time, so a
stall also counts against the frames queued behind it.
"""
from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


def open_loop(send, count: int, rate: float, start: float,
              clock=time.monotonic, sleep=time.sleep) -> list[float]:
    """Call send(i) for i in 0..count-1, each no earlier than start + i/rate.

    Returns how late (seconds) each send began after its due time.
    """
    late = []
    for i in range(count):
        due = start + i / rate
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        late.append(now - due)
        send(i)
    return late


@dataclass
class Drive:
    received: list[tuple[int, bytes, float]] = field(default_factory=list)
    due: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def drive(client, frames, count: int, rate: float, first_id: int = 1,
          lead_s: float = 0.05) -> Drive:
    """Send `count` frames on a schedule and collect every answer.

    `frames(i)` gives (mask, road_class) for frame id i. The sender shuts the
    write side when done; receiving stops at the server's end of stream.
    """
    out = Drive()
    start = time.monotonic() + lead_s
    out.due = [start + i / rate for i in range(count)]

    def send(i: int) -> None:
        mask, road_class = frames(first_id + i)
        client.send_mask(first_id + i, mask, road_class)

    def sender() -> None:
        try:
            out.late = open_loop(send, count, rate, start)
            client.finish_sending()
        except OSError as e:
            out.errors.append(f"send: {e}")

    thread = threading.Thread(target=sender, name="loadgen-send", daemon=True)
    thread.start()
    try:
        while True:
            msg = client.recv_regions()
            if msg is None:
                break
            out.received.append((msg.frame_id, msg.payload.document, time.monotonic()))
    except (OSError, ValueError) as e:
        out.errors.append(f"receive: {e}")
        client.close()  # unblocks a sender stuck in sendall
    thread.join(timeout=10.0)
    if thread.is_alive():
        out.errors.append("sender did not finish")
    return out


def lockstep_ratio(answered: dict[int, float], sent: list[float],
                   window: float = 0.003) -> float:
    """Share of answers that came in lock-step with the next send.

    `answered[i]` is when the answer to frame i arrived, `sent[i]` when frame
    i's send began. An answer counts when it arrived within `window` seconds
    after the next frame's send began: the moment the ACK riding on that
    frame lets the server send a reply its Nagle algorithm held back.
    """
    pairs = [(answered[i], sent[i + 1]) for i in range(len(sent) - 1) if i in answered]
    held = sum(1 for got, next_sent in pairs if 0.0 <= got - next_sent < window)
    return held / len(pairs) if pairs else 0.0
