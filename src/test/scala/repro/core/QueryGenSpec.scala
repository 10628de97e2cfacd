package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.baseline.BruteForce
import repro.graph.LabeledGraph

/** Workload generation: labels, primitivity, determinism, answer
  * correctness of both query sets.
  */
class QueryGenSpec extends AnyFunSuite {

  private val g = TestGraphs.smallBa(5, n = 50, e = 220, labels = 3)

  for (len <- 1 to 3)
    test(s"generated queries of length $len are correctly labeled (vs brute force)") {
      val (trues, falses) = QueryGen.workload(g, n = 30, len = len, seed = 11)
      assert(trues.size == 30)
      assert(falses.size == 30)
      trues.foreach { q =>
        assert(q.answer)
        assert(BruteForce.reach(g, q.s, q.t, q.mr), s"true query wrong: $q")
      }
      falses.foreach { q =>
        assert(!q.answer)
        assert(!BruteForce.reach(g, q.s, q.t, q.mr), s"false query wrong: $q")
      }
    }

  test("constraints are primitive with distinct labels, like the paper's (a∘b)+") {
    val (trues, falses) = QueryGen.workload(g, n = 40, len = 2, seed = 3)
    (trues ++ falses).foreach { q =>
      val labels = LabelSeq.decode(q.mr)
      assert(labels.length == 2)
      assert(labels.distinct.length == 2, s"labels not distinct: ${labels.toSeq}")
      assert(LabelSeq.isPrimitive(q.mr))
    }
  }

  test("generation is deterministic in the seed") {
    val a = QueryGen.workload(g, n = 20, len = 2, seed = 77)
    val b = QueryGen.workload(g, n = 20, len = 2, seed = 77)
    assert(a == b)
    val c = QueryGen.workload(g, n = 20, len = 2, seed = 78)
    assert(a != c)
  }

  test("workload output is pinned: the same draws on a fixed graph and seed") {
    def fingerprint(qs: Seq[QueryGen.RlcQuery]): Long =
      qs.foldLeft(17L) { (h, q) =>
        (((h * 31 + q.s) * 31 + q.t) * 31 + q.mr) * 31 + (if (q.answer) 1 else 0)
      }
    val got = (1 to 3).map { len =>
      val (trues, falses) = QueryGen.workload(g, n = 30, len = len, seed = 11)
      fingerprint(trues ++ falses)
    }
    assert(got == Seq(7713359464638745835L, 5274791912313346372L, 6565144099430733055L))
  }

  test("false-query generation returns when every triple is true") {
    // one-label complete digraph with self-loops: every (s, t, l0+) holds
    val n = 4
    val g = LabeledGraph.fromEdges(n, 1,
      (for (s <- 0 until n; t <- 0 until n) yield (s, 0, t)).toArray)
    assert(QueryGen.falseQueries(g, 5, len = 1, seed = 1).isEmpty)
  }

  test("the RLC index agrees on every generated query") {
    val index = RlcIndexBuilder.build(g, 2)
    val (trues, falses) = QueryGen.workload(g, n = 50, len = 2, seed = 9)
    (trues ++ falses).foreach { q =>
      assert(index.query(q.s, q.t, q.mr) == q.answer, s"$q")
    }
  }
}
