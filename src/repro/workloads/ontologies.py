"""Ontology generators: the Lemma 6.5 chains and a university-style workload."""

from __future__ import annotations

import random

from repro.datalog.terms import Constant, Null
from repro.owl.model import Ontology, some, inverse
from repro.owl.rdf_mapping import ontology_to_graph
from repro.rdf.graph import RDFGraph
from repro.rdf.namespaces import RDF
from repro.sparql.ast import BGP, TriplePattern


# ---------------------------------------------------------------------------
# The Lemma 6.5 family (O_n, P_n)
# ---------------------------------------------------------------------------


def chain_ontology(n: int) -> Ontology:
    """``O_n``: the positive OWL 2 QL core ontology of the Lemma 6.5 proof.

    ``ClassAssertion(a0, c)``, ``SubClassOf(a0, ∃p)``, ``SubClassOf(∃p⁻, a1)``
    and the chain ``SubClassOf(a1, a2), ..., SubClassOf(a_{n-1}, a_n)``.  The
    anonymous individual forced by ``∃p`` must belong to all of
    ``a1, ..., a_n``, which is what makes the ground connection of the
    corresponding null grow with ``n``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    ontology = Ontology()
    ontology.assert_class("a0", "c")
    ontology.sub_class("a0", some("p"))
    ontology.sub_class(some(inverse("p")), "a1")
    for i in range(1, n):
        ontology.sub_class(f"a{i}", f"a{i + 1}")
    return ontology


def chain_ontology_graph(n: int) -> RDFGraph:
    """``G_n``: the RDF representation of ``O_n``."""
    return ontology_to_graph(chain_ontology(n))


def chain_basic_graph_pattern(n: int) -> BGP:
    """``P_n``: ``{ (_:B, rdf:type, a1), ..., (_:B, rdf:type, a_n) }``."""
    blank = Null("_:B")
    return BGP(
        TriplePattern(blank, RDF.type, Constant(f"a{i}")) for i in range(1, n + 1)
    )


# ---------------------------------------------------------------------------
# A university-style OWL 2 QL core workload (LUBM-flavoured)
# ---------------------------------------------------------------------------

_UNIVERSITY_TBOX = [
    # class hierarchy
    ("sub_class", "Professor", "Faculty"),
    ("sub_class", "Lecturer", "Faculty"),
    ("sub_class", "Faculty", "Employee"),
    ("sub_class", "Employee", "Person"),
    ("sub_class", "Student", "Person"),
    ("sub_class", "GraduateStudent", "Student"),
    # property hierarchy
    ("sub_property", "headOf", "worksFor"),
    ("sub_property", "worksFor", "memberOf"),
    ("sub_property", "teacherOf", "involvedIn"),
    ("sub_property", "takesCourse", "involvedIn"),
    # existential axioms
    ("sub_class_some", "Professor", "teacherOf"),
    ("sub_class_some", "Student", "takesCourse"),
    ("sub_class_some", "Faculty", "worksFor"),
    ("sub_class_some_inv", "teacherOf", "Course"),
    ("sub_class_some_inv", "takesCourse", "Course"),
    ("sub_class_some_inv", "worksFor", "Department"),
]


def university_ontology(
    n_departments: int = 2,
    students_per_department: int = 10,
    professors_per_department: int = 3,
    courses_per_department: int = 4,
    with_disjointness: bool = False,
    seed: int = 0,
) -> Ontology:
    """A scalable OWL 2 QL core ontology for the entailment-regime benchmarks.

    The TBox is fixed (class/property hierarchies plus unqualified existential
    axioms); the ABox scales with the department/student/course counts.
    ``with_disjointness=True`` adds ``DisjointClasses(Student, Course)`` so
    consistency checking is exercised as well.
    """
    rng = random.Random(seed)
    ontology = Ontology()

    for kind, first, second in _UNIVERSITY_TBOX:
        if kind == "sub_class":
            ontology.sub_class(first, second)
        elif kind == "sub_property":
            ontology.sub_property(first, second)
        elif kind == "sub_class_some":
            ontology.sub_class(first, some(second))
        elif kind == "sub_class_some_inv":
            ontology.sub_class(some(inverse(first)), second)
    if with_disjointness:
        ontology.disjoint_classes("Student", "Course")

    for d in range(n_departments):
        department = f"dept{d}"
        ontology.assert_class("Department", department)
        courses = [f"course{d}_{c}" for c in range(courses_per_department)]
        for course in courses:
            ontology.assert_class("Course", course)
        for p in range(professors_per_department):
            professor = f"prof{d}_{p}"
            ontology.assert_class("Professor", professor)
            ontology.assert_property("worksFor", professor, department)
            if courses:
                ontology.assert_property(
                    "teacherOf", professor, courses[rng.randrange(len(courses))]
                )
            if p == 0:
                ontology.assert_property("headOf", professor, department)
        for s in range(students_per_department):
            student = f"student{d}_{s}"
            cls = "GraduateStudent" if s % 3 == 0 else "Student"
            ontology.assert_class(cls, student)
            if courses and s % 2 == 0:
                ontology.assert_property(
                    "takesCourse", student, courses[rng.randrange(len(courses))]
                )
    return ontology


def university_graph(**kwargs) -> RDFGraph:
    """The RDF representation of :func:`university_ontology`."""
    return ontology_to_graph(university_ontology(**kwargs))


# ---------------------------------------------------------------------------
# A LUBM-style multi-university workload (the university-scale series)
# ---------------------------------------------------------------------------

_LUBM_TBOX = [
    # class hierarchy (three professor ranks, two student kinds, organisations)
    ("sub_class", "FullProfessor", "Professor"),
    ("sub_class", "AssociateProfessor", "Professor"),
    ("sub_class", "AssistantProfessor", "Professor"),
    ("sub_class", "Professor", "Faculty"),
    ("sub_class", "Lecturer", "Faculty"),
    ("sub_class", "Faculty", "Employee"),
    ("sub_class", "Employee", "Person"),
    ("sub_class", "UndergraduateStudent", "Student"),
    ("sub_class", "GraduateStudent", "Student"),
    ("sub_class", "Student", "Person"),
    ("sub_class", "ResearchGroup", "Organization"),
    ("sub_class", "Department", "Organization"),
    ("sub_class", "University", "Organization"),
    ("sub_class", "GraduateCourse", "Course"),
    # property hierarchy
    ("sub_property", "headOf", "worksFor"),
    ("sub_property", "worksFor", "memberOf"),
    ("sub_property", "teacherOf", "involvedIn"),
    ("sub_property", "takesCourse", "involvedIn"),
    ("sub_property", "advisor", "knows"),
    # existential axioms (unqualified, OWL 2 QL core)
    ("sub_class_some", "Professor", "teacherOf"),
    ("sub_class_some", "Student", "takesCourse"),
    ("sub_class_some", "Faculty", "worksFor"),
    ("sub_class_some", "GraduateStudent", "advisor"),
    ("sub_class_some", "Department", "subOrganizationOf"),
    ("sub_class_some_inv", "teacherOf", "Course"),
    ("sub_class_some_inv", "takesCourse", "Course"),
    ("sub_class_some_inv", "worksFor", "Department"),
    ("sub_class_some_inv", "advisor", "Professor"),
    ("sub_class_some_inv", "subOrganizationOf", "University"),
]

_PROFESSOR_RANKS = ("FullProfessor", "AssociateProfessor", "AssistantProfessor")


def lubm_style_ontology(
    n_universities: int = 1,
    departments_per_university: int = 3,
    faculty_per_department: int = 4,
    students_per_department: int = 20,
    courses_per_department: int = 6,
    seed: int = 0,
) -> Ontology:
    """A LUBM-flavoured OWL 2 QL core workload scaling across universities.

    A richer TBox than :func:`university_ontology` (professor ranks,
    graduate courses, research groups, university/department organisation
    with ``subOrganizationOf`` existentials, advisor edges) over a
    multi-university ABox — the university-scale benchmark series.  The
    ABox grows linearly in every scale parameter; the entailment-regime
    materialisation grows roughly with #persons × class-hierarchy depth.
    """
    rng = random.Random(seed)
    ontology = Ontology()
    for kind, first, second in _LUBM_TBOX:
        if kind == "sub_class":
            ontology.sub_class(first, second)
        elif kind == "sub_property":
            ontology.sub_property(first, second)
        elif kind == "sub_class_some":
            ontology.sub_class(first, some(second))
        elif kind == "sub_class_some_inv":
            ontology.sub_class(some(inverse(first)), second)

    for u in range(n_universities):
        university = f"univ{u}"
        ontology.assert_class("University", university)
        for d in range(departments_per_university):
            department = f"u{u}dept{d}"
            ontology.assert_class("Department", department)
            ontology.assert_property("subOrganizationOf", department, university)
            group = f"u{u}d{d}group"
            ontology.assert_class("ResearchGroup", group)
            ontology.assert_property("subOrganizationOf", group, department)
            courses = [f"u{u}d{d}course{c}" for c in range(courses_per_department)]
            for c, course in enumerate(courses):
                cls = "GraduateCourse" if c % 3 == 0 else "Course"
                ontology.assert_class(cls, course)
            professors = []
            for f in range(faculty_per_department):
                person = f"u{u}d{d}fac{f}"
                if f % 4 == 3:
                    ontology.assert_class("Lecturer", person)
                else:
                    rank = _PROFESSOR_RANKS[f % len(_PROFESSOR_RANKS)]
                    ontology.assert_class(rank, person)
                    professors.append(person)
                ontology.assert_property("worksFor", person, department)
                ontology.assert_property("memberOf", person, group)
                if courses:
                    ontology.assert_property(
                        "teacherOf", person, courses[rng.randrange(len(courses))]
                    )
                if f == 0:
                    ontology.assert_property("headOf", person, department)
            for s in range(students_per_department):
                student = f"u{u}d{d}stud{s}"
                graduate = s % 4 == 0
                ontology.assert_class(
                    "GraduateStudent" if graduate else "UndergraduateStudent", student
                )
                for _ in range(1 + s % 2):
                    if courses:
                        ontology.assert_property(
                            "takesCourse", student, courses[rng.randrange(len(courses))]
                        )
                if graduate and professors:
                    ontology.assert_property(
                        "advisor", student, professors[rng.randrange(len(professors))]
                    )
    return ontology


def lubm_style_graph(**kwargs) -> RDFGraph:
    """The RDF representation of :func:`lubm_style_ontology`."""
    return ontology_to_graph(lubm_style_ontology(**kwargs))
