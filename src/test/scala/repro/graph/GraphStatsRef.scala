package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Reference triangle count for tests of [[GraphStats.trianglesDFOrdered]]. */
object GraphStatsRef {

  /** Single-row DataFrame `triangles` = number of directed 3-cycles over
    * distinct vertices. Labels and edge multiplicity are ignored (the
    * structural edge set), self-loops excluded; each cycle is counted once
    * by anchoring it at its minimum vertex.
    */
  def trianglesDF(edges: DataFrame): DataFrame = {
    val de = edges.filter(col("src") =!= col("dst")).select("src", "dst").distinct()
    val e1 = de.as("e1"); val e2 = de.as("e2"); val e3 = de.as("e3")
    e1.join(e2, col("e2.src") === col("e1.dst"))
      .join(e3, col("e3.src") === col("e2.dst") && col("e3.dst") === col("e1.src"))
      .filter(col("e1.src") < col("e2.src") && col("e1.src") < col("e3.src"))
      .agg(count(lit(1)).as("triangles"))
  }
}
