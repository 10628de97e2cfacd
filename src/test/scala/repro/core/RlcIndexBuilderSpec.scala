package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.baseline.BruteForce
import repro.graph.LabeledGraph

/** Soundness + completeness of the sequential indexing algorithm on many
  * seeded random graphs: for every vertex pair and every primitive
  * constraint of length <= k, the index answer must equal an independent
  * brute-force product-graph search. Also checks the condensed property
  * and the flat snapshot.
  */
class RlcIndexBuilderSpec extends AnyFunSuite {

  private def checkAllPairs(g: LabeledGraph, k: Int): RlcIndex = {
    val index = RlcIndexBuilder.build(g, k)
    val prims = BruteForce.primitives(g.numLabels, k)
    for (s <- 0 until g.numVertices; t <- 0 until g.numVertices; mr <- prims) {
      val expected = BruteForce.reach(g, s, t, mr)
      assert(index.query(s, t, mr) == expected,
        s"s=$s t=$t L=${LabelSeq.show(mr)} expected=$expected")
    }
    index
  }

  for (seed <- 1 to 10; k <- 1 to LabelSeq.MaxLen)
    test(s"random graph seed=$seed k=$k: index ≡ brute force on all pairs, condensed") {
      val g = TestGraphs.random(seed, n = 18 + seed, e = 55 + 3 * seed, labels = if (k >= 3) 2 else 3)
      val index = checkAllPairs(g, k)
      assert(index.condensedViolations == 0L)
    }

  for (seed <- 1 to 4)
    test(s"skewed BA graph seed=$seed k=2: index ≡ brute force on all pairs") {
      val g = TestGraphs.smallBa(seed, n = 40, e = 150, labels = 3)
      checkAllPairs(g, 2)
    }

  for (seed <- 1 to 4)
    test(s"ER graph seed=$seed k=2: index ≡ brute force on all pairs") {
      val g = TestGraphs.smallEr(seed, n = 40, e = 140, labels = 3)
      checkAllPairs(g, 2)
    }

  test("self-loop heavy graph: loops traversed multiple times when needed") {
    // v0 -l0-> v0 (loop), v0 -l1-> v1: (l0,l1)+ requires using the loop;
    // (l0)+ from v0 to v0 true; (l1)+ from v0 to v1 true.
    val g = LabeledGraph.fromEdges(2, 2, Array((0, 0, 0), (0, 1, 1)))
    val index = RlcIndexBuilder.build(g, 2)
    assert(index.query(0, 0, LabelSeq.encode(0)))
    assert(index.query(0, 1, LabelSeq.encode(1)))
    assert(index.query(0, 1, LabelSeq.encode(0, 1)))
    assert(!index.query(0, 1, LabelSeq.encode(1, 0)))
    assert(!index.query(1, 0, LabelSeq.encode(0)))
  }

  test("two-cycle requires full alternation: (l0,l1)+ across a 2-cycle") {
    // 0 -l0-> 1 -l1-> 0
    val g = LabeledGraph.fromEdges(2, 2, Array((0, 0, 1), (1, 1, 0)))
    val index = RlcIndexBuilder.build(g, 2)
    assert(index.query(0, 0, LabelSeq.encode(0, 1)))
    assert(index.query(1, 1, LabelSeq.encode(1, 0)))
    assert(index.query(0, 1, LabelSeq.encode(0)))
    assert(!index.query(0, 0, LabelSeq.encode(0)))
    assert(!index.query(0, 0, LabelSeq.encode(1, 0)))
  }

  test("long cycle with k=1: (l0)+ around a 5-cycle") {
    val g = LabeledGraph.fromEdges(5, 1, Array.tabulate(5)(i => (i, 0, (i + 1) % 5)))
    val index = RlcIndexBuilder.build(g, 1)
    for (s <- 0 until 5; t <- 0 until 5)
      assert(index.query(s, t, LabelSeq.encode(0)), s"$s->$t")
  }

  test("disconnected pieces never reach each other") {
    val g = LabeledGraph.fromEdges(4, 2, Array((0, 0, 1), (2, 0, 3)))
    val index = RlcIndexBuilder.build(g, 2)
    assert(index.query(0, 1, LabelSeq.encode(0)))
    assert(index.query(2, 3, LabelSeq.encode(0)))
    assert(!index.query(0, 3, LabelSeq.encode(0)))
    assert(!index.query(0, 2, LabelSeq.encode(0)))
  }

  test("flat snapshot answers exactly like the live index") {
    // the snapshot serves only Case 1 (the distributed builder's task PR1)
    val g = TestGraphs.random(99, n = 22, e = 70, labels = 3)
    val index = RlcIndexBuilder.build(g, 2)
    val snap  = FlatRlcIndex.fromIndex(index)
    for (s <- 0 until g.numVertices; t <- 0 until g.numVertices;
         mr <- BruteForce.primitives(3, 2))
      assert(snap.caseOneJoin(s, t, mr) == index.caseOneJoin(s, t, mr), s"s=$s t=$t ${LabelSeq.show(mr)}")
  }

  test("condensed property holds on a batch of random graphs") {
    for (seed <- 20 to 30) {
      val g = TestGraphs.random(seed, n = 25, e = 80, labels = 3)
      assert(RlcIndexBuilder.build(g, 2).condensedViolations == 0L, s"seed=$seed")
    }
  }

  test("answer() rejects non-primitive or overlong constraints") {
    val g = TestGraphs.random(1)
    val index = RlcIndexBuilder.build(g, 2)
    intercept[IllegalArgumentException](index.answer(0, 1, LabelSeq.encode(0, 0)))
    intercept[IllegalArgumentException](index.answer(0, 1, LabelSeq.encode(0, 1, 2)))
  }

  test("index size accounting: sizeInBytes = 12 * entries + 8 * |V|") {
    val g = TestGraphs.random(5)
    val index = RlcIndexBuilder.build(g, 2)
    assert(index.sizeInBytes == index.entryCount * 12 + g.numVertices * 8)
    assert(index.sizeInMB > 0)
  }
}
