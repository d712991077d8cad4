"""Member-walk reference for a batch's aggregates.

:class:`~repro.engine.batching.Batch` sets its shape (``size``,
``input_tokens``, ``output_tokens``) once, when it is built, and keeps its
progress (``committed_tokens``) as a field that ``commit_tokens`` and
``drop_cache`` update.  Each function here derives one aggregate from the
member requests on every read, the way the batch used to; the batching
suite checks that the two agree after every step.
"""


def size(batch):
    """Number of requests in the batch."""
    return len(batch.requests)


def input_tokens(batch):
    """The longest prompt among the members."""
    return max(request.input_tokens for request in batch.requests)


def output_tokens(batch):
    """The longest output among the members."""
    return max(request.output_tokens for request in batch.requests)


def committed_tokens(batch):
    """The smallest decoding progress among the members."""
    return min(request.committed_tokens for request in batch.requests)


def remaining_tokens(batch):
    """Output tokens still to generate for the slowest member."""
    return max(request.remaining_tokens for request in batch.requests)


def is_complete(batch):
    """True when every member finished decoding."""
    return all(request.is_complete for request in batch.requests)


#: Every aggregate, each named like the ``Batch`` attribute it pins.
AGGREGATES = (size, input_tokens, output_tokens, committed_tokens, remaining_tokens, is_complete)
