package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Graph statistics for Table III, computed as Spark DataFrame jobs.
  *
  * The paper reports per graph: |V|, |E|, |L|, the loop count (cycles of
  * length 1) and the triangle count (cycles of length 3). Both counts are
  * expressed as joins over the edge table so the DuckDB oracle can verify
  * them with the equivalent SQL.
  */
object GraphStats {

  final case class Stats(v: Long, e: Long, labels: Long, loops: Long, triangles: Long)

  /** Single-row DataFrame `loops` = number of self-loop edges. */
  def loopsDF(edges: DataFrame): DataFrame =
    edges.filter(col("src") === col("dst")).agg(count(lit(1)).as("loops"))

  /** Single-row DataFrame `triangles` = number of directed 3-cycles over
    * distinct vertices. Labels and edge multiplicity are ignored (the
    * structural edge set), self-loops excluded. Each cycle is enumerated at
    * its minimum-rank vertex (rank = (total degree, id) ascending), so the
    * wedge join costs `Σ_v outH(v) * inH(v)` over *higher-ranked*
    * neighbourhoods only — the standard O(|E|^1.5) bound that survives the
    * BA hubs where the naive `Σ_v in(v) * out(v)` join explodes.
    */
  def trianglesDFOrdered(edges: DataFrame): DataFrame = {
    val de = edges.filter(col("src") =!= col("dst")).select("src", "dst").distinct()
    val deg = de.select(col("src").as("v")).union(de.select(col("dst").as("v")))
      .groupBy("v").agg(count(lit(1)).as("deg"))
    val rk = deg.select(col("v"), struct(col("deg"), col("v")).as("rk"))
    val e = de
      .join(rk.select(col("v").as("src"), col("rk").as("rks")), "src")
      .join(rk.select(col("v").as("dst"), col("rk").as("rkd")), "dst")
    // a is the minimum-rank vertex of the cycle a -> b -> c -> a
    val fwdLow = e.filter(col("rks") < col("rkd")).select(col("src").as("a"), col("dst").as("b"))
    val inLow  = e.filter(col("rkd") < col("rks")).select(col("dst").as("a"), col("src").as("c"))
    fwdLow.join(inLow, "a")
      .join(de, col("src") === col("b") && col("dst") === col("c"))
      .agg(count(lit(1)).as("triangles"))
  }

  def compute(spark: SparkSession, g: LabeledGraph): Stats = {
    val edges = g.toDF(spark).cache()
    try {
      val e      = edges.count()
      val labels = edges.select("label").distinct().count()
      val loops  = loopsDF(edges).collect()(0).getLong(0)
      val tris   = trianglesDFOrdered(edges).collect()(0).getLong(0)
      Stats(g.numVertices.toLong, e, labels, loops, tris)
    } finally edges.unpersist()
  }
}
