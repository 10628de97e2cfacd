package repro.spark

import org.scalacheck.{Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import repro.{SparkSpec, TestGraphs}
import repro.baseline.{BruteForce, Etc}
import repro.core.{FlatRlcIndex, KbsScratch, LabelSeq, RlcIndex, RlcIndexBuilder}
import repro.core.RlcIndexBuilderSpec.{genCase, shrinkCase, viewList}

/** The distributed builder must answer exactly like brute force, stay
  * condensed and keep the sequential Algorithm 2's entry set. On these
  * 15–80-vertex graphs the sequential head is |V|/64 = 0 or 1 roots, so
  * (almost) every root runs in the one Spark job against the snapshot of
  * an (almost) empty index: the stalest view a task can have. Pinned entry
  * sets guard the merge against drift, and a ScalaCheck property runs both
  * builders on small random graphs with self-loops and parallel edges.
  */
class DistRlcIndexBuilderSpec extends SparkSpec {

  /** Every (vertex, direction, hop, MR) entry. */
  private def entrySet(ix: RlcIndex): Set[(Int, Boolean, Int, Long)] = {
    val b = Set.newBuilder[(Int, Boolean, Int, Long)]
    for (v <- 0 until ix.numVertices) {
      ix.out(v).foreachEntry((h, m) => b += ((v, true, h, m)))
      ix.in(v).foreachEntry((h, m) => b += ((v, false, h, m)))
    }
    b.result()
  }

  for (seed <- 1 to 5)
    test(s"dist index ≡ sequential ≡ brute force, seed=$seed") {
      val g = TestGraphs.random(seed, n = 20, e = 60, labels = 3)
      val dist = DistRlcIndexBuilder.build(spark, g, 2)
      val seq  = RlcIndexBuilder.build(g, 2)
      for (s <- 0 until g.numVertices; t <- 0 until g.numVertices;
           mr <- BruteForce.primitives(3, 2)) {
        val expected = BruteForce.reach(g, s, t, mr)
        assert(dist.query(s, t, mr) == expected, s"dist s=$s t=$t ${LabelSeq.show(mr)}")
        assert(seq.query(s, t, mr) == expected, s"seq s=$s t=$t ${LabelSeq.show(mr)}")
      }
      assert(dist.condensedViolations == 0L, "distributed index must stay condensed")
      assert(entrySet(dist) == entrySet(seq))
    }

  test("one scratch serves every root of a Spark partition: task output as with a fresh scratch per root") {
    val g = TestGraphs.random(21, n = 60, e = 200, labels = 3)
    val k = 2
    val (aid, order) = RlcIndexBuilder.accessOrder(g)
    val head = new RlcIndex(g.numVertices, k, aid)
    RlcIndexBuilder.runRoots(g, k, head, order.take(4).toIndexedSeq, new KbsScratch(g.numVertices, k))
    val snap = FlatRlcIndex.fromIndex(head)
    val rest = order.drop(4).toIndexedSeq
    def entries(out: Array[(Int, Array[Int], Array[Long])]) =
      out.toSeq.map { case (root, lists, mrs) => (root, lists.toSeq, mrs.toSeq) }
    val shared = spark.sparkContext.parallelize(rest, 2)
      .mapPartitions(roots => DistRlcIndexBuilder.searchRoots(g, k, snap, roots, new KbsScratch(g.numVertices, k)))
      .collect()
    val fresh = rest.map { root =>
      DistRlcIndexBuilder.searchRoots(g, k, snap, Iterator(root), new KbsScratch(g.numVertices, k)).next()
    }.toArray
    assert(shared.map(_._3.length).sum > 0)
    assert(entries(shared) == entries(fresh))
  }

  test("k=3 distributed build on a cyclic graph") {
    val g = TestGraphs.random(11, n = 15, e = 45, labels = 2)
    val dist = DistRlcIndexBuilder.build(spark, g, 3)
    for (s <- 0 until g.numVertices; t <- 0 until g.numVertices;
         mr <- BruteForce.primitives(2, 3))
      assert(dist.query(s, t, mr) == BruteForce.reach(g, s, t, mr),
        s"s=$s t=$t ${LabelSeq.show(mr)}")
  }

  test("skewed BA graph: distributed entry set equals the sequential one") {
    val g = TestGraphs.smallBa(13, n = 80, e = 320, labels = 3)
    val dist = DistRlcIndexBuilder.build(spark, g, 2)
    val seq  = RlcIndexBuilder.build(g, 2)
    for (s <- 0 until g.numVertices; t <- 0 until g.numVertices;
         mr <- BruteForce.primitives(3, 2))
      assert(dist.query(s, t, mr) == seq.query(s, t, mr), s"s=$s t=$t ${LabelSeq.show(mr)}")
    assert(dist.entryCount == seq.entryCount, s"dist=${dist.entryCount} seq=${seq.entryCount}")
    assert(entrySet(dist) == entrySet(seq))
    assert(dist.condensedViolations == 0L)
  }

  test("one Spark job, no sequential head: entry set = sequential") {
    val g = TestGraphs.random(17, n = 25, e = 75, labels = 3) // head: 25 / 64 = 0 roots
    assert(entrySet(DistRlcIndexBuilder.build(spark, g, 2)) == entrySet(RlcIndexBuilder.build(g, 2)))
  }

  test("k outside 1..MaxLen is rejected") {
    val g = TestGraphs.random(1, n = 5, e = 10, labels = 2)
    for (k <- Seq(0, LabelSeq.MaxLen + 1)) {
      val builds = Seq[() => Any](() => DistRlcIndexBuilder.build(spark, g, k),
        () => RlcIndexBuilder.build(g, k), () => Etc.build(g, k))
      for (build <- builds) {
        val e = intercept[IllegalArgumentException](build())
        assert(e.getMessage.contains(s"k=$k outside 1..${LabelSeq.MaxLen}"))
      }
    }
  }

  test("property: dist entry set = sequential, condensed; sequential ≡ brute force; snapshot holds every list") {
    val prop = Prop.forAll(genCase) { c =>
      val g    = c.graph
      val seq  = RlcIndexBuilder.build(g, c.k)
      val dist = DistRlcIndexBuilder.build(spark, g, c.k)
      val snap = FlatRlcIndex.fromIndex(seq)
      val prims = BruteForce.primitives(g.numLabels, c.k)
      val wrong = for (s <- 0 until g.numVertices; t <- 0 until g.numVertices; mr <- prims
                       if seq.query(s, t, mr) != BruteForce.reach(g, s, t, mr))
        yield s"($s, $t, ${LabelSeq.show(mr)})"
      ((entrySet(dist) == entrySet(seq)) :| "distributed entry set equals the sequential one") &&
      ((dist.condensedViolations == 0L) :| "distributed index is condensed") &&
      (wrong.isEmpty :| s"sequential answers differ from brute force at ${wrong.take(3).mkString(", ")}") &&
      ((0 until 2 * g.numVertices).forall(l => viewList(snap, l) == viewList(seq, l)) :|
        "snapshot holds the live list under every list id")
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(Seed(20230402L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
  }

  /** Order-independent checksum over every (vertex, direction, hop, MR) entry. */
  private def checksum(ix: RlcIndex): Long = {
    var sum = 0L
    for (v <- 0 until ix.numVertices) {
      ix.out(v).foreachEntry((h, m) => sum += (v, 1, h, m).##.toLong)
      ix.in(v).foreachEntry((h, m) => sum += (v, 0, h, m).##.toLong)
    }
    sum
  }

  // (graph seed, entry count, checksum), recorded under an older
  // distributed build (several Spark jobs, Algorithm 1 as the merge's PR1)
  // and unchanged since; they equal the sequential build's. Seeds 1–5 are
  // the 20-vertex graphs above, seed 13 the 80-vertex BA graph.
  private val Pinned = Seq(
    (1, 215L, -5434706825L), (2, 240L, -230616567L), (3, 201L, -28683721556L),
    (4, 237L, -2117277189L), (5, 198L, -20743691220L), (13, 715L, -33051146747L))

  for ((seed, entries, sum) <- Pinned)
    test(s"pinned entry set, seed=$seed") {
      val g = if (seed == 13) TestGraphs.smallBa(seed, n = 80, e = 320, labels = 3)
              else TestGraphs.random(seed, n = 20, e = 60, labels = 3)
      val dist = DistRlcIndexBuilder.build(spark, g, 2)
      assert((dist.entryCount, checksum(dist)) == ((entries, sum)))
    }
}
