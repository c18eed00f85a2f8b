"""Synthetic reciprocal-backing generators shared by ledger and acceptance tests,
and records to and from ``ContributionColumns``."""

import random
from typing import NamedTuple

from qfround.funding import ContributionColumns
from qfround.ledger import TeamRoster


class Record(NamedTuple):
    """One contribution record, as the tests spell it out."""

    contributor_id: str
    project_id: str
    amount: float
    day: int = 0


def columns_of(records):
    """``(contributor, project, amount)`` records, in order, as columns; every day is 0."""
    columns = ContributionColumns()
    for contributor, project, amount in records:
        columns.append(contributor, project, amount, 0)
    return columns


def records_of(columns):
    """The records of ``columns``, in order, as ``Record`` tuples."""
    contributors, projects = list(columns.contributor_codes), list(columns.project_codes)
    return tuple(
        Record(contributors[c], projects[p], amount, day)
        for c, p, amount, day in zip(columns.contributors, columns.projects, columns.amounts, columns.days)
    )


def generate_backing(
    n_projects=2000,
    reciprocation_prob=0.2,
    quota_range=(1, 40),
    category_weights=(("alpha", 3), ("beta", 3), ("gamma", 4)),
    seed=0,
):
    """Random backing network with a known reciprocation probability.

    Every project has one team member and an outdegree quota.  Initiation
    slots are processed in random order: the project backs a fresh uniform
    target, and the target reciprocates with the given probability, spending
    one unit of its own quota on the return edge.  Quota consumption keeps a
    project's outdegree pinned near its (exogenous) quota, so the OLS slope
    of reciprocated count on outdegree recovers the reciprocation
    probability.  Targets are drawn independently of category, which makes
    this the null model for the cross-category comparison.
    """
    rng = random.Random(seed)
    projects = [f"p{i}" for i in range(n_projects)]
    members = [f"m{p}" for p in projects]
    labels = []
    for name, weight in category_weights:
        labels.extend([name] * weight)
    categories = {p: labels[i % len(labels)] for i, p in enumerate(projects)}
    roster = TeamRoster({p: frozenset({member}) for p, member in zip(projects, members)})

    # Projects are indices here, and an edge (source, target) is the int
    # source * n_projects + target; names are attached once at the end.
    quota = [rng.randint(*quota_range) for _ in projects]
    used = [0] * n_projects
    edges = set()
    pairs = []

    def add_edge(source, target):
        edges.add(source * n_projects + target)
        used[source] += 1
        pairs.append((source, target))

    slots = [i for i in range(n_projects) for _ in range(quota[i])]
    rng.shuffle(slots)
    # rng.randrange(n_projects), drawn the way Random draws it: getrandbits
    # of n_projects' bit length, redrawn while out of range.
    getrandbits, bits = rng.getrandbits, n_projects.bit_length()
    for source in slots:
        if used[source] >= quota[source]:
            continue  # quota already consumed by granted reciprocations
        for _ in range(64):
            target = getrandbits(bits)
            while target >= n_projects:
                target = getrandbits(bits)
            if target != source and source * n_projects + target not in edges:
                break
        else:
            continue
        add_edge(source, target)
        if rng.random() < reciprocation_prob:
            if used[target] < quota[target] and target * n_projects + source not in edges:
                add_edge(target, source)
    contributions = columns_of((members[a], projects[b], 1.0) for a, b in pairs)
    return contributions, roster, categories


def community_percentages_fixture():
    """50 projects, 17 in 'community': outside share 33/50 and reciprocal
    endpoints split 142 cross / 58 within, i.e. exactly (0.66, 0.71)."""
    community = [f"c{i}" for i in range(17)]
    others = [f"o{i}" for i in range(33)]
    projects = community + others
    roster = TeamRoster({p: frozenset({f"m{p}"}) for p in projects})
    categories = {p: ("community" if p in set(community) else "general") for p in projects}

    records = []

    def mutual(a, b):
        records.append((f"m{a}", b, 1.0))
        records.append((f"m{b}", a, 1.0))

    within = [
        (community[i], community[j])
        for i in range(len(community))
        for j in range(i + 1, len(community))
    ]
    for a, b in within[:29]:
        mutual(a, b)
    cross = [(c, o) for c in community for o in others]
    for a, b in cross[:142]:
        mutual(a, b)
    return columns_of(records), roster, categories
