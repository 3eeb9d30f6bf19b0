"""Counted resources with FIFO queuing.

Models exclusive or limited-concurrency devices (a CPU core, a disk arm).
Requests are granted strictly in request order, preserving determinism.
"""

from __future__ import annotations

import weakref
from collections import deque

from .core import Event, Simulator
from .errors import SimError

__all__ = ["Resource"]


class ResourceRequest(Event):
    """Event granted when the resource has a free slot.

    Usable as a context manager inside a process::

        req = resource.request()
        yield req
        try:
            ... hold the resource ...
        finally:
            resource.release(req)
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource

    def __enter__(self) -> "ResourceRequest":
        return self

    def __exit__(self, *exc) -> None:
        self.resource.release(self)


def _processed(req: ResourceRequest) -> ResourceRequest:
    """Mark ``req`` granted and processed without a trip through the queue."""
    req._ok = True
    req._value = None
    req.callbacks = None
    return req


class Resource:
    """``capacity`` concurrent holders; extra requests queue FIFO."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.users: list[ResourceRequest] = []
        self.queue: deque[ResourceRequest] = deque()
        #: the one pre-processed grant :meth:`request_now` hands out at the
        #: batch tail of a free capacity-1 resource (never queued or posted);
        #: None when ``capacity > 1``.  Its back-reference is weak: a strong
        #: one would make every resource a reference cycle and leave its
        #: simulator to the cyclic collector.
        self._tail_grant = (
            _processed(ResourceRequest(weakref.proxy(self))) if capacity == 1 else None
        )

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self.users)

    def request(self) -> ResourceRequest:
        req = ResourceRequest(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def request_now(self) -> ResourceRequest:
        """Like :meth:`request`, but an immediate grant skips the event queue
        when that is provably order-preserving.

        The grant event exists only to give the requester its FIFO turn among
        the events already scheduled at this instant.  When the requester is
        running as the *last* event of the current batch (``sim.at_tail()``)
        the grant would be processed immediately next with nothing in
        between, so it is returned already *processed* (``callbacks is
        None``) and the caller proceeds synchronously — schedules are
        byte-identical by construction, one queue round-trip cheaper.  In any
        other situation this is exactly :meth:`request`.

        Nobody can wait on a processed grant, so on a capacity-1 resource it
        needs no identity either: every such grant is the same shared object
        (one CPU segment, one allocation fewer).  :meth:`release` still
        rejects it unless it is the current holder.  With ``capacity > 1``
        several tail grants can be held at once and must stay distinguishable,
        so those keep one object per request.
        """
        users = self.users
        if len(users) >= self.capacity:
            req = ResourceRequest(self)
            self.queue.append(req)
        elif not self.sim.at_tail():
            req = ResourceRequest(self)
            users.append(req)
            req.succeed()
        else:
            req = self._tail_grant or _processed(ResourceRequest(self))
            users.append(req)
        return req

    def release(self, req: ResourceRequest) -> None:
        try:
            self.users.remove(req)
        except ValueError:
            # Releasing a queued (never-granted) request cancels it.
            try:
                self.queue.remove(req)
                return
            except ValueError:
                raise SimError("release of a request that was never granted") from None
        if self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()
