"""Seeded input generators for the PARK benchmark.

Every generator takes the run's seed and returns plain inputs (rule text,
fact text, a database, the employees each commit swaps).  The seed changes
names, fact order and which keys an operation touches, never the amount
of work: the closure graph and the repair lanes are relabelled copies of
one fixed structure, and every commit swaps the same number of employees
out and in.
That is what lets medians from different seeds be compared directly.
"""

from __future__ import annotations

import random

from repro.lang.atoms import Atom
from repro.lang.pretty import render_atom, render_program
from repro.lang.terms import Constant
from repro.workloads.hr import hr_database
from repro.workloads.graphs import transitive_closure

IC_REPAIR_RULES = (
    "pending(K, I), succ(I, J) -> +pending(K, J).\n"
    "pending(K, I), odd(I) -> +flag(K).\n"
    "pending(K, I), even(I) -> -flag(K).\n"
)


def _fact_text(atoms, rng):
    atoms = list(atoms)
    rng.shuffle(atoms)
    return "\n".join("%s." % render_atom(atom) for atom in atoms) + "\n"


def ic_repair(seed, lanes=20, depth=24):
    """A restart-heavy integrity-constraint repair program, as text.

    Each of *lanes* lanes walks a ``succ`` chain ``1..depth``; an odd
    position inserts ``flag(K)`` and an even one deletes it, so every odd
    position past the first re-opens the same conflict.  Under inertia
    (``flag`` is absent from the database, so the delete wins) each
    conflict blocks one more odd instance per lane and restarts Θ from
    ``I∅``: ``depth // 2`` restarts and ``lanes * depth // 2`` conflicts,
    with every epoch but the last thrown away.  The seed picks the lane
    names and the fact order.  Returns ``(rules_text, facts_text)``.
    """
    rng = random.Random(seed)
    names = ["l%04d" % n for n in rng.sample(range(10000), lanes)]
    atoms = []
    for i in range(1, depth):
        atoms.append(Atom("succ", (Constant(i), Constant(i + 1))))
    for i in range(1, depth + 1):
        atoms.append(Atom("odd" if i % 2 else "even", (Constant(i),)))
    for name in names:
        atoms.append(Atom("pending", (Constant(name), Constant(1))))
    return IC_REPAIR_RULES, _fact_text(atoms, rng)


def closure(seed, nodes=50):
    """``transitive_closure(nodes)`` as text, its nodes renamed by *seed*.

    The edge structure is the generator's fixed default graph, so every
    seed computes an isomorphic closure.  Returns ``(rules_text,
    facts_text)``.
    """
    workload = transitive_closure(nodes)
    rng = random.Random(seed)
    labels = ["n%d" % i for i in range(nodes)]
    shuffled = labels[:]
    rng.shuffle(shuffled)
    rename = {Constant(a): Constant(b) for a, b in zip(labels, shuffled)}
    atoms = [
        Atom(atom.predicate, tuple(rename[t] for t in atom.terms))
        for atom in workload.database.atoms()
    ]
    return render_program(workload.program) + "\n", _fact_text(atoms, rng)


def salary(index):
    """The salary ``hr_database`` gives employee ``e<index>``."""
    return 1000 + (index % 50) * 10


def standing_database(employees, seed):
    """The HR database a commit stream runs against, and who is active.

    ``hr_database(employees)`` with half the staff inactive, after the
    paper's cleanup has removed their payroll rows, plus one ``audit`` and
    one ``severance`` row per employee as history.  Swapping an employee
    then only flips ``active``/``payroll``: the ECA rules re-derive
    history rows that already exist, so the database neither grows nor
    shrinks over a run and every commit sees the same size.  Returns the
    database and the set of active employee indexes.
    """
    database = hr_database(employees, inactive_fraction=0.5, seed=seed)
    active = set()
    for index in range(employees):
        name = Constant("e%d" % index)
        pay = Constant(salary(index))
        if Atom("active", (name,)) in database:
            active.add(index)
        else:
            database.remove(Atom("payroll", (name, pay)))
        database.add(Atom("audit", (name, pay)))
        database.add(Atom("severance", (name,)))
    return database, active


class Roster:
    """Who is active, and the seeded draw of who leaves and who returns.

    Every commit swaps as many active employees out (``-active``) as
    inactive ones back in (``+active``, ``+payroll``).  The head count
    stays fixed, so the database stays the same size, and every commit
    does the same mix of work: a commit that only deactivated costs
    about half again as much as one that only rehired, and a random mix
    of the two would put the median on the boundary between them.
    """

    def __init__(self, employees, active, seed):
        self.active = sorted(active)
        self.inactive = sorted(set(range(employees)) - set(active))
        self._rng = random.Random(seed ^ 0x5EED)

    def swap(self, count):
        """Draw *count* leaving and *count* returning employees; returns
        ``(leaving, returning)`` and records them as swapped."""
        leaving = self._draw(self.active, count)
        returning = self._draw(self.inactive, count)
        self.active += returning
        self.inactive += leaving
        return leaving, returning

    def _draw(self, pool, count):
        drawn = []
        for _ in range(count):
            index = self._rng.randrange(len(pool))
            pool[index], pool[-1] = pool[-1], pool[index]
            drawn.append(pool.pop())
        return drawn
