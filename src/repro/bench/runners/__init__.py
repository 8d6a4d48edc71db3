"""Experiment drivers: one ``run_*`` function per table, figure, extension,
ablation and subsystem bench of the evaluation.

Each driver builds a fresh simulation over :mod:`~repro.bench.runners.kit`,
drives its workload, and returns plain data structures.  The paper's
experiments live one to a module; ``extensions``, ``hotpath`` and
``sharding`` hold the repo's own.  Every module ends in the
:class:`~repro.bench.paper.Experiment` declarations that say how its
drivers are run, printed and checked (:func:`repro.bench.paper.experiments`
is the table of them).  This is the one list of the package's public
names.
"""

from repro.bench.runners.extensions import (
    run_ack_batching,
    run_chaos_seeds,
    run_chunk_size_ablation,
    run_cross_traffic,
    run_group_commit,
    run_jit_ablation,
    run_redblue_comparison,
    run_scalability,
    run_strategy_comparison,
)
from repro.bench.runners.fig3 import QUORUM_MEMBERS, run_quorum_read
from repro.bench.runners.fig4 import run_trace_shape
from repro.bench.runners.fig5 import run_trace_experiment
from repro.bench.runners.fig6 import (
    FIG6_PREDICATES,
    file_sync_time_paxos,
    file_sync_time_stabilizer,
    run_file_sync,
)
from repro.bench.runners.fig7 import (
    PUBSUB_SITES,
    run_pubsub_pulsar,
    run_pubsub_stabilizer,
    run_pubsub_sweep,
)
from repro.bench.runners.fig8 import run_reconfig
from repro.bench.runners.hotpath import (
    ack_calls_per_ack,
    frame_calls_per_message,
    hotpath_calls_per_report,
    kernel_calls_per_event,
    lone_send_calls_per_peer,
    run_hotpath,
    run_hotpath_frontier,
    run_pipeline,
    run_sim_kernel,
    wal_calls_per_record,
)
from repro.bench.runners.kit import build_network, count_calls
from repro.bench.runners.microbench import run_dsl_microbench, synthesize_predicate
from repro.bench.runners.network import run_network_matrix
from repro.bench.runners.sharding import (
    run_overload_bench,
    run_rebalance_bench,
    run_shard_scaling,
)
from repro.bench.runners.table3 import run_table3
