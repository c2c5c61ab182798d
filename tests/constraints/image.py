"""Decoding the encoder's integer image back to atoms, for assertions."""

from repro.constraints.model import ORDER, OLt, RFChoice, SWChoice, clause_groups


def literal(atoms, kinds, lit):
    """What literal ``lit`` asserts: an order literal as the :class:`OLt`
    it makes true, a choice literal as its atom, or ``("not", atom)``."""
    a, b = atoms[abs(lit)]
    kind = kinds[abs(lit)]
    if kind == ORDER:
        return OLt(a, b) if lit > 0 else OLt(b, a)
    atom = (RFChoice, SWChoice)[kind - 1](a, b)
    return atom if lit > 0 else ("not", atom)


def clauses(table, flat):
    """The decoded clauses of a 0-terminated flat list."""
    return [
        [literal(table.atoms, table.kinds, lit) for lit in clause]
        for clause in clause_groups(flat)
    ]


def pairs(table, flat):
    """The decoded two-literal clauses of a flat pair list."""
    return [
        [literal(table.atoms, table.kinds, lit) for lit in flat[i : i + 2]]
        for i in range(0, len(flat), 2)
    ]
