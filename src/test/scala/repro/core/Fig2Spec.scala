package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baseline.BruteForce
import repro.graph.ExampleGraphs

/** The paper's running example: the Fig. 2 graph must yield exactly the
  * RLC index of Table II (k = 2), the IN-OUT access order quoted in
  * Sec. V-B, the kernel candidates of Example 4, and the query answers of
  * Example 3.
  */
class Fig2Spec extends AnyFunSuite {
  private val l1 = 0; private val l2 = 1; private val l3 = 2
  private val Seq(v1, v2, v3, v4, v5, v6) = (0 to 5).toSeq

  private def L(ls: Int*): Long = LabelSeq.encode(ls.toArray)

  private val g = ExampleGraphs.fig2
  private val index = RlcIndexBuilder.build(g, 2)

  test("IN-OUT access order is (v1, v3, v2, v4, v5, v6)") {
    val (aid, order) = RlcIndexBuilder.accessOrder(g)
    assert(order.toSeq == Seq(v1, v3, v2, v4, v5, v6))
    assert(aid(v3) == 2, "aid(v3) = 2 as quoted in Sec. V-B")
  }

  test("Example 4: backward kernel-search from v1 finds three kernel candidates and their frontiers") {
    val (aid, _) = RlcIndexBuilder.accessOrder(g)
    val scratch  = new KbsScratch(g.numVertices, 2)
    Kbs.backward(g, v1, 2, new RootInserter(new RlcIndex(g.numVertices, 2, aid), v1, scratch), scratch)
    val frontiers = (0 until scratch.numKernels).map { s =>
      scratch.kernels(s) -> scratch.frontiers(s).take(scratch.frontierN(s)).toSet
    }.toMap
    assert(frontiers == Map(
      L(l1)     -> Set(v2, v4, v5),
      L(l2)     -> Set(v1, v3),
      L(l2, l1) -> Set(v2, v3)))
  }

  private def outSet(v: Int): Set[(Int, Long)] = {
    var s = Set.empty[(Int, Long)]
    index.out(v).foreachEntry((h, m) => s += ((h, m)))
    s
  }
  private def inSet(v: Int): Set[(Int, Long)] = {
    var s = Set.empty[(Int, Long)]
    index.in(v).foreachEntry((h, m) => s += ((h, m)))
    s
  }

  test("Table II: L_out and L_in of v1") {
    assert(outSet(v1) == Set((v1, L(l2)), (v1, L(l1)), (v1, L(l2, l1))))
    assert(inSet(v1).isEmpty)
  }

  test("Table II: L_out and L_in of v2") {
    assert(outSet(v2) == Set((v1, L(l2, l1)), (v1, L(l1))))
    assert(inSet(v2) == Set((v1, L(l1)), (v1, L(l2, l1))))
  }

  test("Table II: L_out and L_in of v3") {
    assert(outSet(v3) == Set((v1, L(l2)), (v1, L(l2, l1)), (v1, L(l1)), (v3, L(l1, l2))))
    assert(inSet(v3) == Set((v1, L(l2)), (v1, L(l1, l2))))
  }

  test("Table II: L_out and L_in of v4") {
    assert(outSet(v4) == Set((v1, L(l1)), (v3, L(l1, l2))))
    assert(inSet(v4) == Set((v1, L(l2))))
  }

  test("Table II: L_out and L_in of v5") {
    assert(outSet(v5) == Set((v1, L(l1)), (v3, L(l1, l2))))
    assert(inSet(v5) == Set((v1, L(l1, l2)), (v1, L(l1)), (v3, L(l1, l2)), (v2, L(l2))))
  }

  test("Table II: L_out and L_in of v6") {
    assert(outSet(v6).isEmpty)
    assert(inSet(v6) == Set((v1, L(l2, l1)), (v3, L(l1)), (v3, L(l2, l3)), (v4, L(l3))))
  }

  test("Example 3: Q1(v3, v6, (l2,l1)+) = true via Case 1 with hop v1") {
    assert(index.outContains(v3, v1, L(l2, l1)))
    assert(index.inContains(v6, v1, L(l2, l1)))
    assert(index.answer(v3, v6, L(l2, l1)))
  }

  test("Example 3: Q2(v1, v2, (l2,l1)+) = true via Case 2") {
    assert(index.inContains(v2, v1, L(l2, l1)))
    assert(index.answer(v1, v2, L(l2, l1)))
  }

  test("Example 3: Q3(v1, v3, (l1)+) = false although v1 reaches v3") {
    assert(index.inContains(v3, v1, L(l2)))
    assert(!index.answer(v1, v3, L(l1)))
  }

  test("index is condensed (Def. 5)") {
    assert(index.condensedViolations == 0L)
  }

  test("index answers all pairs × all primitive constraints like brute force") {
    for {
      s  <- 0 until g.numVertices
      t  <- 0 until g.numVertices
      mr <- BruteForce.primitives(g.numLabels, 2)
    } assert(index.query(s, t, mr) == BruteForce.reach(g, s, t, mr),
      s"s=$s t=$t L=${LabelSeq.show(mr)}")
  }

  /** Every insert attempt of the k = 2 build, root by root in access order,
    * as `root dir y mr verdict`: `dir` is `out` for `(root, mr)` into
    * `L_out(y)` and `in` for `L_in(y)`; the verdict is `kept`, `PR2`
    * (`aid(root) > aid(y)`) or `PR1` (PR2 passed, the inserter refused).
    * PR3 shows as the attempts that a refused kernel-BFS completion cuts off.
    */
  private def attemptLog: Seq[String] = {
    val (aid, order) = RlcIndexBuilder.accessOrder(g)
    val built   = new RlcIndex(g.numVertices, 2, aid)
    val scratch = new KbsScratch(g.numVertices, 2)
    val log     = Seq.newBuilder[String]
    order.foreach { root =>
      val ins = new RootInserter(built, root, scratch)
      def note(dir: String, y: Int, mr: Long, ok: Boolean): Boolean = {
        val verdict = if (ok) "kept" else if (aid(root) > aid(y)) "PR2" else "PR1"
        log += s"v${root + 1} $dir v${y + 1} ${LabelSeq.show(mr)} $verdict"
        ok
      }
      Kbs.run(g, root, 2, new Inserter {
        def insertOut(y: Int, mr: Long): Boolean = note("out", y, mr, ins.insertOut(y, mr))
        def insertIn(y: Int, mr: Long): Boolean  = note("in", y, mr, ins.insertIn(y, mr))
      }, scratch)
      RootInserter.append(built, root, ins.lists, ins.mrs, ins.n)
    }
    log.result()
  }

  test("pruning-rule firings: every insert attempt of the build and its verdict, in order") {
    assert(attemptLog == Seq(
      "v1 out v3 (l2) kept", "v1 out v1 (l2) kept", "v1 out v4 (l1) kept", "v1 out v5 (l1) kept",
      "v1 out v2 (l1) kept", "v1 out v1 (l1) kept", "v1 out v3 (l1) kept", "v1 out v3 (l2,l1) kept",
      "v1 out v2 (l2,l1) kept", "v1 out v1 (l2,l1) kept",
      "v1 in v3 (l2) kept", "v1 in v1 (l2) PR1", "v1 in v4 (l2) kept", "v1 in v2 (l2,l1) kept",
      "v1 in v6 (l2,l1) kept", "v1 in v1 (l2,l1) PR1", "v1 in v2 (l1) kept", "v1 in v5 (l1) kept",
      "v1 in v1 (l1) PR1", "v1 in v5 (l1,l2) kept", "v1 in v3 (l1,l2) kept",
      "v3 out v1 (l2) PR2", "v3 out v3 (l2) PR1", "v3 out v4 (l1,l2) kept", "v3 out v5 (l1,l2) kept",
      "v3 out v1 (l1,l2) PR2", "v3 out v3 (l1,l2) kept",
      "v3 in v1 (l2) PR2", "v3 in v3 (l2) PR1", "v3 in v4 (l2) PR1", "v3 in v2 (l2,l1) PR1",
      "v3 in v1 (l2,l1) PR2", "v3 in v6 (l2,l1) PR1", "v3 in v6 (l2,l3) kept", "v3 in v2 (l1) PR1",
      "v3 in v5 (l1) PR1", "v3 in v6 (l1) kept", "v3 in v1 (l1) PR2", "v3 in v5 (l1,l2) kept",
      "v3 in v3 (l1,l2) PR1",
      "v2 out v1 (l1) PR2", "v2 out v4 (l1) PR1", "v2 out v5 (l1) PR1", "v2 out v3 (l1) PR2",
      "v2 out v2 (l1) PR1", "v2 out v3 (l2,l1) PR2", "v2 out v1 (l2,l1) PR2", "v2 out v2 (l2,l1) PR1",
      "v2 in v5 (l2) kept", "v2 in v1 (l2,l1) PR2", "v2 in v2 (l2,l1) PR1", "v2 in v6 (l2,l1) PR1",
      "v2 in v5 (l1) PR1", "v2 in v1 (l1) PR2", "v2 in v2 (l1) PR1",
      "v4 out v3 (l2) PR2", "v4 out v1 (l2) PR2",
      "v4 in v1 (l1) PR2", "v4 in v2 (l1) PR2", "v4 in v5 (l1) PR1", "v4 in v3 (l1,l2) PR2",
      "v4 in v5 (l1,l2) PR1", "v4 in v6 (l3) kept",
      "v5 out v2 (l2) PR2", "v5 out v1 (l1,l2) PR2", "v5 out v3 (l1,l2) PR2", "v5 out v4 (l1,l2) PR2",
      "v5 out v5 (l1,l2) PR1", "v5 out v2 (l1) PR2", "v5 out v1 (l1) PR2", "v5 out v3 (l1) PR2",
      "v5 out v4 (l1) PR2", "v5 out v5 (l1) PR1",
      "v5 in v1 (l1) PR2", "v5 in v2 (l1) PR2", "v5 in v5 (l1) PR1", "v5 in v3 (l1,l2) PR2",
      "v5 in v5 (l1,l2) PR1",
      "v6 out v3 (l1) PR2", "v6 out v1 (l2,l1) PR2", "v6 out v3 (l2,l1) PR2", "v6 out v2 (l2,l1) PR2",
      "v6 out v4 (l3) PR2", "v6 out v3 (l2,l3) PR2"))
  }

  test("entry count matches Table II (26 entries)") {
    assert(index.entryCount == 26L)
  }
}
