"""Scalar reference implementations the differential suites compare against.

Each control-stack algorithm, the cost table, the dataplane's dispatch and
the simulator's run loop have one production implementation in
``src/repro``.  The straightforward scalar version of each lives here, next
to the tests that use it:

* :mod:`oracles.controller` -- Algorithm 1 as one Python-level estimate per
  feasible configuration, enumerated and profiled through the two oracles
  below, plus a controller that never serves a memo;
* :mod:`oracles.config` -- the feasible space as a nested loop with one
  memory check per configuration, instead of a mask over rows built once;
* :mod:`oracles.costmodel` -- ``l_exe`` as a per-token loop of decode
  iterations instead of one vectorised pass over many shapes;
* :mod:`oracles.device_mapper` -- Section 3.3's edge weight for one
  (device, position) pair, ``reuse_weight``, which every cell of the
  production weight matrix equals bitwise; the matching with one
  ``reuse_weight`` call per pair, solved through
  :class:`oracles.bipartite.BipartiteGraph`; and the adoption rule before
  the reuse-bound skip, which solves the flat matching in every round;
* :mod:`oracles.migration` -- Algorithm 2 with per-device meta-context
  scans, ``sorted`` source ranking and a scalar deferred-layer drain;
* :mod:`oracles.network` -- a migration step's batch time with every
  transfer priced on its own (link class, zone lookups and bandwidth
  factor per transfer), instead of once per instance pair;
* :mod:`oracles.dataplane` -- batch dispatch, and the arrival's "is any
  pipeline idle?" question, as a scan of every pipeline's ``is_busy`` per
  arrival and completion instead of the idle-pipeline index;
* :mod:`oracles.batching` -- a batch's size, token lengths and progress
  as a walk over its member requests on every read, instead of a shape
  computed while ``next_batch`` takes the members and a progress field;
  the batch constructor that derived that shape from the members; and a
  request queue that builds each arrival's ``Request`` when it is
  enqueued, instead of keeping a streamed arrival as its bare time until
  a batch takes it;
* :mod:`oracles.engine` -- the simulator's run loop as one pop of the
  next live event and one ``fire`` call per event, instead of one loop
  turn that pops the heap and fires the event; ``step`` dispatches a
  single event of any simulator that way; and a simulator whose horizon
  is always ``now``, so every streamed arrival and batch completion is
  an event of its own instead of being taken in.

The oracles subclass (or take) the production classes and share their
unchanged helpers, so a comparison isolates exactly the code that was made
fast.
"""
