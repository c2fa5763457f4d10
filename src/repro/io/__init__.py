"""File formats and rendering: hyperDAG I/O, binary DAGs, DOT, rendering."""

from .dot import dag_to_dot, schedule_to_dot, write_dot
from .hdagb import (
    MappedDag,
    is_hdagb,
    load_dag,
    read_hdagb,
    write_hdagb,
)
from .hyperdag import dumps_hyperdag, loads_hyperdag, read_hyperdag, write_hyperdag
from .mtx import (
    dumps_matrix_market_pattern,
    loads_matrix_market_pattern,
    read_matrix_market_pattern,
    write_matrix_market_pattern,
)
from .render import render_cost_table, render_schedule_text

__all__ = [
    "MappedDag",
    "dag_to_dot",
    "dumps_hyperdag",
    "dumps_matrix_market_pattern",
    "is_hdagb",
    "load_dag",
    "loads_hyperdag",
    "loads_matrix_market_pattern",
    "read_hdagb",
    "read_hyperdag",
    "read_matrix_market_pattern",
    "render_cost_table",
    "render_schedule_text",
    "schedule_to_dot",
    "write_dot",
    "write_hdagb",
    "write_hyperdag",
    "write_matrix_market_pattern",
]
