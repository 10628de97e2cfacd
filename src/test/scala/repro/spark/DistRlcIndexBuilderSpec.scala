package repro.spark

import repro.{SparkSpec, TestGraphs}
import repro.baseline.BruteForce
import repro.core.{LabelSeq, RlcIndexBuilder}

/** The batched distributed builder must answer exactly like the sequential
  * Algorithm 2 (both equal brute force) and stay condensed, including when
  * forced through many small batches (maximum snapshot staleness). Every
  * build passes `seqHead = 0`: the automatic head would cover all roots of
  * these small graphs, and no Spark batch would run.
  */
class DistRlcIndexBuilderSpec extends SparkSpec {

  for (seed <- 1 to 5)
    test(s"dist index ≡ sequential ≡ brute force, seed=$seed, tiny batches") {
      val g = TestGraphs.random(seed, n = 20, e = 60, labels = 3)
      val dist = DistRlcIndexBuilder.build(spark, g, 2, firstBatch = 3, maxBatch = 7, seqHead = 0)
      val seq  = RlcIndexBuilder.build(g, 2)
      for (s <- 0 until g.numVertices; t <- 0 until g.numVertices;
           mr <- BruteForce.primitives(3, 2)) {
        val expected = BruteForce.reach(g, s, t, mr)
        assert(dist.query(s, t, mr) == expected, s"dist s=$s t=$t ${LabelSeq.show(mr)}")
        assert(seq.query(s, t, mr) == expected, s"seq s=$s t=$t ${LabelSeq.show(mr)}")
      }
      assert(dist.condensedViolations == 0L, "distributed index must stay condensed")
    }

  test("k=3 distributed build on a cyclic graph") {
    val g = TestGraphs.random(11, n = 15, e = 45, labels = 2)
    val dist = DistRlcIndexBuilder.build(spark, g, 3, firstBatch = 4, maxBatch = 8, seqHead = 0)
    for (s <- 0 until g.numVertices; t <- 0 until g.numVertices;
         mr <- BruteForce.primitives(2, 3))
      assert(dist.query(s, t, mr) == BruteForce.reach(g, s, t, mr),
        s"s=$s t=$t ${LabelSeq.show(mr)}")
  }

  test("skewed BA graph: distributed ≡ sequential answers, size within 10%") {
    val g = TestGraphs.smallBa(13, n = 80, e = 320, labels = 3)
    val dist = DistRlcIndexBuilder.build(spark, g, 2, firstBatch = 16, maxBatch = 64, seqHead = 0)
    val seq  = RlcIndexBuilder.build(g, 2)
    for (s <- 0 until g.numVertices; t <- 0 until g.numVertices;
         mr <- BruteForce.primitives(3, 2))
      assert(dist.query(s, t, mr) == seq.query(s, t, mr), s"s=$s t=$t ${LabelSeq.show(mr)}")
    // batching can keep a few extra entries relative to the sequential order,
    // but the condensed replay keeps the difference marginal
    assert(dist.entryCount <= seq.entryCount * 1.1 + 16,
      s"dist=${dist.entryCount} seq=${seq.entryCount}")
    assert(dist.condensedViolations == 0L)
  }

  test("single batch equals the fully-sequential entry set") {
    val g = TestGraphs.random(17, n = 25, e = 75, labels = 3)
    val dist = DistRlcIndexBuilder.build(spark, g, 2, firstBatch = 1, maxBatch = 1, seqHead = 0)
    val seq  = RlcIndexBuilder.build(g, 2)
    def sets(ix: repro.core.RlcIndex) = {
      val b = Set.newBuilder[(Int, Int, Long, Boolean)]
      for (v <- 0 until ix.numVertices) {
        ix.out(v).foreachEntry((h, m) => b += ((v, h, m, true)))
        ix.in(v).foreachEntry((h, m) => b += ((v, h, m, false)))
      }
      b.result()
    }
    // with batch size 1 the snapshot is never stale — entry sets must match exactly
    assert(sets(dist) == sets(seq))
  }
}
