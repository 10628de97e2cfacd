package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.baseline.BruteForce
import repro.core.LabelSeq

/** Distributed extended transitive closure as DataFrame dataflow — the
  * "build a transitive-closure-like structure via DataFrame joins over edge
  * tables partitioned by label" half of the reproduction hint.
  *
  * For every primitive label sequence `L` (|L| <= k), the one-copy relation
  * `R_L = { (u,v) : u →L→ v }` is the composition of |L| label-filtered edge
  * relations; `u ⇝ v` under `L^+` iff `(u,v)` is in the transitive closure
  * of `R_L`, computed semi-naively with iterative joins. The union over all
  * `L` is exactly the ETC relation `{ (u, v, L) : L ∈ S^k(u,v) }` (Def. 2:
  * a path has k-MR `L` iff it decomposes into whole copies of `L`).
  */
object DistEtc {

  /** The one-copy relation R_L as (src, dst). */
  def oneCopy(edges: DataFrame, mr: Long): DataFrame = {
    val labels = LabelSeq.decode(mr)
    var rel = edges.filter(col("label") === lit(labels(0))).select(col("src"), col("dst"))
    var i = 1
    while (i < labels.length) {
      val nxt = edges.filter(col("label") === lit(labels(i)))
        .select(col("src").as("msrc"), col("dst").as("mdst"))
      rel = rel.join(nxt, rel("dst") === col("msrc"))
        .select(rel("src"), col("mdst").as("dst"))
      i += 1
    }
    rel.distinct()
  }

  private val MaxIters = 100_000 // join rounds after which a closure stops growing

  /** Semi-naive transitive closure of a binary relation (src, dst). */
  def transitiveClosure(rel: DataFrame): DataFrame = {
    val base  = rel.localCheckpoint(true)
    var tc    = base
    var delta = base
    var iters = 0
    while (delta.count() > 0 && iters < MaxIters) {
      val next = delta
        .join(base.select(col("src").as("bsrc"), col("dst").as("bdst")),
              delta("dst") === col("bsrc"))
        .select(delta("src"), col("bdst").as("dst"))
        .distinct()
        .join(tc, Seq("src", "dst"), "left_anti")
        .localCheckpoint(true)
      tc = tc.union(next).localCheckpoint(true)
      delta = next
      iters += 1
    }
    tc
  }

  /** The full ETC as a DataFrame (src, dst, mr), `mr` a packed primitive
    * sequence, over every primitive sequence of length <= k over the
    * alphabet (empty one-copy relations are skipped cheaply after one count).
    */
  def build(spark: SparkSession, edges: DataFrame, numLabels: Int, k: Int): DataFrame = {
    val parts = BruteForce.primitives(numLabels, k).flatMap { mr =>
      val one = oneCopy(edges, mr)
      if (one.isEmpty) None
      else Some(transitiveClosure(one).withColumn("mr", lit(mr)))
    }
    parts.reduceOption(_ union _).getOrElse {
      import spark.implicits._
      Seq.empty[(Int, Int, Long)].toDF("src", "dst", "mr")
    }
  }
}
