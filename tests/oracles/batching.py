"""Member-walk reference for a batch's aggregates.

:class:`~repro.engine.batching.Batch` sets its shape (``size``,
``input_tokens``, ``output_tokens``) once, when it is built, and keeps its
progress (``committed_tokens``) as a field that ``commit_tokens`` and
``drop_cache`` update.  Each function here derives one aggregate from the
member requests on every read, the way the batch used to; the batching
suite checks that the two agree after every step.

:func:`start_and_complete` is the other half: a batch's start and
completion as the member walks they used to be, which
``InferencePipeline.start_batch`` and ``complete_batch`` now do in one walk
each.
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


#: Every aggregate, each named like the ``Batch`` attribute it pins.
AGGREGATES = (size, input_tokens, output_tokens, committed_tokens, remaining_tokens)


def start_and_complete(batch, start, end, resume):
    """Start *batch* at *start* and complete it at *end*, member by member.

    A start without ``resume`` drops committed progress, and each member
    keeps its first start time.  Completion commits the batch's remainder
    on every member (``Batch.commit_tokens``, one ``Request.commit_tokens``
    each) and then stamps each member's completion time.
    """
    if not resume and batch.committed_tokens > 0:
        batch.drop_cache()
    for request in batch.requests:
        if request.first_start_time is None:
            request.first_start_time = start
    remaining = batch.output_tokens - batch.committed_tokens
    if remaining > 0:
        batch.commit_tokens(remaining)
    for request in batch.requests:
        request.completion_time = end
