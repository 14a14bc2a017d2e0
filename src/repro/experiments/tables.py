"""Tables 2a-2d: the model parameters, rendered as the paper prints them."""

from __future__ import annotations

from ..params import PAPER_DEFAULTS, SystemParameters
from ..units import MEGAWORD, text_table


def render_table_2a(params: SystemParameters = PAPER_DEFAULTS) -> str:
    rows = [
        ("C_lock", "(un)locking overhead", f"{params.c_lock:.0f}",
         "instructions"),
        ("C_alloc", "buffer (de)allocation overhead", f"{params.c_alloc:.0f}",
         "instructions"),
        ("C_io", "I/O overhead", f"{params.c_io:.0f}", "instructions"),
        ("C_lsn", "maintain LSNs", f"{params.c_lsn:.0f}", "instructions"),
    ]
    return text_table(["symbol", "parameter", "value", "units"], rows,
                      title="Table 2a - Basic Operation Costs")


def render_table_2b(params: SystemParameters = PAPER_DEFAULTS) -> str:
    rows = [
        ("T_seek", "I/O delay time", f"{params.t_seek:g}", "seconds"),
        ("T_trans", "transfer time constant", f"{params.t_trans * 1e6:g}",
         "useconds/word"),
        ("N_bdisks", "number of disks", f"{params.n_bdisks}", "disks"),
    ]
    return text_table(["symbol", "parameter", "value", "units"], rows,
                      title="Table 2b - Disk Model Parameters")


def render_table_2c(params: SystemParameters = PAPER_DEFAULTS) -> str:
    rows = [
        ("S_db", "database size", f"{params.s_db / MEGAWORD:g}", "Mwords"),
        ("S_rec", "record size", f"{params.s_rec}", "words"),
        ("S_seg", "segment size", f"{params.s_seg}", "words"),
    ]
    return text_table(["symbol", "parameter", "value", "units"], rows,
                      title="Table 2c - Database Model Parameters")


def render_table_2d(params: SystemParameters = PAPER_DEFAULTS) -> str:
    rows = [
        ("lambda", "arrival rate", f"{params.lam:g}", "transactions/second"),
        ("N_ru", "number of updates", f"{params.n_ru}",
         "records/transaction"),
        ("C_trans", "transaction processor cost", f"{params.c_trans:.0f}",
         "instructions"),
    ]
    return text_table(["symbol", "parameter", "value", "units"], rows,
                      title="Table 2d - Transaction Model Parameters")


def render(params: SystemParameters = PAPER_DEFAULTS) -> str:
    return "\n\n".join([
        render_table_2a(params),
        render_table_2b(params),
        render_table_2c(params),
        render_table_2d(params),
    ])

