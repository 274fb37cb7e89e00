package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.partition.L2P

import scala.collection.mutable

/** The distributed LES³ path (per the reproduction directive): the TGM and
  * the learned partitioning expressed as DataFrame operations, with the
  * trained L2P cascade and the TGM broadcast to executors and candidate
  * pruning done as a broadcast-driven join.
  *
  * Data layout: `data` is `(sid: Long, tokens: Array[Int])` with tokens
  * sorted-distinct; `grouped` adds `gid: Int`.
  */
object SparkSearch {

  /** Assign every set to its group by broadcasting the trained [[L2P.L2PModel]]
    * and running its inference as a UDF.
    */
  def assignGroups(data: DataFrame, model: L2P.L2PModel): DataFrame = {
    val spark = data.sparkSession
    val bc = spark.sparkContext.broadcast(model)
    val assignUdf = udf { tokens: Seq[Int] => bc.value.assign(tokens.toArray) }
    data.withColumn("gid", assignUdf(col("tokens")))
  }

  /** Build the TGM with a DataFrame aggregation: explode tokens, dedupe
    * (gid, token) pairs, and collect each group's distinct-token set.
    */
  def buildTGM(grouped: DataFrame, nGroups: Int,
               measure: SetOps.Measure = SetOps.Jaccard): TGM = {
    val tgm = new TGM(measure)
    (0 until nGroups).foreach(_ => tgm.addGroup())
    val tokenRows = grouped
      .select(col("gid"), explode(col("tokens")).as("t"))
      .distinct()
      .groupBy("gid")
      .agg(collect_set(col("t")).as("ts"))
      .collect()
    for (row <- tokenRows) {
      tgm.addTokensOnly(row.getInt(0), row.getSeq[Int](1))
    }
    val sizeRows = grouped.groupBy("gid").count().collect()
    for (row <- sizeRows) tgm.setSize(row.getInt(0), row.getLong(1).toInt)
    tgm
  }

  private def simUdf(measure: SetOps.Measure) = udf { (a: Seq[Int], b: Seq[Int]) =>
    measure.sim(a.toArray, b.toArray)
  }

  /** Phase-1 coverage of [[knnSearch]], in multiples of k. */
  private val KnnSlack = 3

  /** Distributed range search: the broadcast TGM prunes (query, group)
    * pairs in a UDF; surviving pairs join the data on `gid` and a UDF
    * verifies candidates with the TGM's measure. Returns `(qid, sid, sim)`
    * with sim ≥ δ.
    */
  def rangeSearch(grouped: DataFrame, queries: DataFrame, tgm: TGM,
                  delta: Double): DataFrame = {
    val spark = grouped.sparkSession
    val bc = spark.sparkContext.broadcast(tgm)
    val candGroupsUdf = udf { tokens: Seq[Int] =>
      val t = bc.value
      val ubs = t.ubs(tokens.toArray)
      (0 until t.nGroups).filter(g => t.groupSize(g) > 0 && ubs(g) >= delta)
    }
    broadcast(queries
      .select(col("qid"), col("tokens").as("qtokens"),
              explode(candGroupsUdf(col("tokens"))).as("gid")))
      .join(grouped, "gid")
      .withColumn("sim", simUdf(tgm.measure)(col("qtokens"), col("tokens")))
      .filter(col("sim") >= delta)
      .select(col("qid"), col("sid"), col("sim"))
  }

  /** Exact distributed kNN, two phases:
    *  1. per query, verify the top-UB groups holding ≥ 3k sets to
    *     obtain a lower bound λ_q (the kth-best similarity so far);
    *  2. verify every remaining group with UB ≥ λ_q.
    * Any unverified set has sim ≤ UB(group) < λ_q, so the merged top-k is
    * exact. Returns per-query hits sorted by descending similarity.
    */
  def knnSearch(grouped: DataFrame, queries: Array[(Long, Array[Int])], tgm: TGM,
                k: Int): Map[Long, Array[Hit]] = {
    val spark = grouped.sparkSession
    import spark.implicits._
    require(queries.nonEmpty)

    // Per-query group UBs, computed against the driver-resident TGM (the
    // same structure the executors receive for verification joins).
    val ubs: Map[Long, Array[Double]] = queries.map { case (qid, q) => qid -> tgm.ubs(q) }.toMap
    val queryTokens = queries.toMap
    val measure = tgm.measure

    def verify(pairs: Seq[(Long, Int)]): Map[Long, Seq[Hit]] = {
      if (pairs.isEmpty) return Map.empty
      val bcq = spark.sparkContext.broadcast(queryTokens)
      val pairsDf = pairs.toDF("qid", "gid")
      val simUdf = udf { (qid: Long, tokens: Seq[Int]) =>
        measure.sim(bcq.value(qid), tokens.toArray)
      }
      broadcast(pairsDf)
        .join(grouped, "gid")
        .select(col("qid"), col("sid"),
                simUdf(col("qid"), col("tokens")).as("sim"))
        .collect()
        .groupBy(_.getLong(0))
        .map { case (qid, rows) =>
          qid -> rows.toSeq.map(r => Hit(r.getLong(1).toInt, r.getDouble(2)))
        }
    }

    def topK(hits: Seq[Hit]): TopK = {
      val top = new TopK(k)
      hits.foreach(h => top.offer(h.sid, h.sim))
      top
    }

    // Phase 1: highest-UB groups until ≥ 3k sets are covered.
    val phase1: Seq[(Long, Int)] = queries.toSeq.flatMap { case (qid, _) =>
      val order = Array.range(0, tgm.nGroups).sortBy(g => -ubs(qid)(g))
      var covered = 0
      val chosen = mutable.ArrayBuffer.empty[Int]
      for (g <- order if covered < KnnSlack.toLong * k && tgm.groupSize(g) > 0) {
        chosen += g
        covered += tgm.groupSize(g)
      }
      chosen.map(qid -> _)
    }
    val phase1Hits = verify(phase1)
    val phase1Groups: Map[Long, Set[Int]] =
      phase1.groupBy(_._1).map { case (qid, ps) => qid -> ps.map(_._2).toSet }

    // Phase 2: all other groups whose UB could still beat λ_q.
    val phase2: Seq[(Long, Int)] = queries.toSeq.flatMap { case (qid, _) =>
      val top = topK(phase1Hits.getOrElse(qid, Seq.empty))
      val already = phase1Groups.getOrElse(qid, Set.empty)
      (0 until tgm.nGroups).filter { g =>
        // ties with the kth-best are interchangeable (Definition 2.1), so
        // only strictly-better bounds require verification
        !already.contains(g) && tgm.groupSize(g) > 0 &&
          (!top.full || ubs(qid)(g) > top.min)
      }.map(qid -> _)
    }
    val phase2Hits = verify(phase2)

    queries.map { case (qid, _) =>
      qid -> topK(phase1Hits.getOrElse(qid, Seq.empty) ++ phase2Hits.getOrElse(qid, Seq.empty)).hits.toArray
    }.toMap
  }

  /** Distributed brute force (the scale-out comparison point): a full
    * cross join between queries and data with UDF verification.
    */
  def bruteForceRange(data: DataFrame, queries: DataFrame, delta: Double): DataFrame = {
    broadcast(queries.select(col("qid"), col("tokens").as("qtokens")))
      .crossJoin(data)
      .withColumn("sim", simUdf(SetOps.Jaccard)(col("qtokens"), col("tokens")))
      .filter(col("sim") >= delta)
      .select(col("qid"), col("sid"), col("sim"))
  }
}
