package repro.core

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.io.IOModel
import repro.partition.L2P

import scala.collection.mutable

/** The distributed LES³ path (per the reproduction directive): the TGM and
  * the learned partitioning expressed as DataFrame operations, with the
  * trained L2P cascade and the TGM broadcast to executors, and search run
  * per partition by the shared verification core ([[GroupStore]]).
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

  /** Build the TGM with one DataFrame aggregation: explode tokens and
    * collect each group's distinct-token set, then add each group's set to
    * the matrix on the driver.
    */
  def buildTGM(grouped: DataFrame, nGroups: Int,
               measure: SetOps.Measure = SetOps.Jaccard): TGM = {
    val tgm = new TGM(nGroups, measure)
    grouped
      .select(col("gid"), explode(col("tokens")).as("t"))
      .groupBy("gid")
      .agg(collect_set(col("t")))
      .collect()
      .foreach(row => tgm.addSet(row.getInt(0), row.getSeq[Int](1).toArray))
    tgm
  }

  /** Runs `search` for every query of a batch in one pass over `grouped`.
    * The queries and the TGM are broadcast; each partition builds the
    * [[GroupStore]] of its rows (a member's id is its position among
    * them) and, per query, calls `search` with the store and the query's
    * bounds ([[TGM.ubs]]). Each hit `search` returns becomes a
    * `(qid, sid, sim)` row. A group's bound covers its members in every
    * partition, so each partition's answer is exact over its rows.
    */
  private def perPartition(grouped: DataFrame, queries: Array[(Long, Array[Int])], tgm: TGM)(
      search: (GroupStore, Array[Int], Array[Double]) => Iterable[Hit]): Dataset[(Long, Long, Double)] = {
    val spark = grouped.sparkSession
    import spark.implicits._
    val bc = spark.sparkContext.broadcast((tgm, queries))
    grouped.select(col("sid"), col("tokens"), col("gid")).as[(Long, Array[Int], Int)].mapPartitions { rows =>
      val (t, qs) = bc.value
      val rs = rows.toArray
      val sids = rs.map(_._1)
      val grouping = new Grouping(rs.map(_._3), t.nGroups)
      val store = new GroupStore(rs.map(_._2), grouping, t.measure, IOModel.InMemory)
      qs.iterator.flatMap { case (qid, q) =>
        search(store, q, t.ubs(q)).map(h => (qid, sids(h.sid), h.sim))
      }
    }
  }

  /** Distributed range search (Definition 2.2): δ, which must lie in
    * (0, 1] ([[SetOps.requireDelta]]), and the batch's queries, which
    * must be canonical ([[SetOps.requireCanonical]]), are checked on the
    * driver, and one pass over `grouped` verifies, per partition, the
    * groups whose bound reaches δ with the TGM's measure. Returns
    * `(qid, sid, sim)` with sim ≥ δ.
    */
  def rangeSearch(grouped: DataFrame, queries: DataFrame, tgm: TGM,
                  delta: Double): DataFrame = {
    import grouped.sparkSession.implicits._
    SetOps.requireDelta(delta, "rangeSearch")
    val qs = queries.select(col("qid"), col("tokens")).as[(Long, Array[Int])].collect()
    qs.foreach { case (_, q) => SetOps.requireCanonical(q, "rangeSearch") }
    perPartition(grouped, qs, tgm) { (store, q, ubs) =>
      val hits = mutable.ArrayBuffer.empty[Hit]
      store.searchRange(q, ubs, delta, hits)
      hits
    }.toDF("qid", "sid", "sim")
  }

  /** Exact distributed kNN (Definition 2.1) in one pass over `grouped`:
    * each partition returns its exact local top-k per query, and the
    * driver merges them with one [[TopK]] per query. Exact, because the
    * global top-k is a union of local top-ks: a set outside its
    * partition's top-k has at most that partition's kth-best similarity,
    * which is never above the global kth-best. The queries must be
    * canonical, with distinct qids, and k ≥ 1; all are checked on the
    * driver before any job starts. A sid must fit [[Hit]]'s `Int`, else
    * `ArithmeticException`. Returns per-query hits sorted by descending
    * similarity.
    */
  def knnSearch(grouped: DataFrame, queries: Array[(Long, Array[Int])], tgm: TGM,
                k: Int): Map[Long, Array[Hit]] = {
    require(queries.nonEmpty)
    require(k >= 1, s"kNN needs k >= 1, got k = $k")
    require(queries.map(_._1).distinct.length == queries.length, "knnSearch needs distinct qids")
    queries.foreach { case (_, q) => SetOps.requireCanonical(q, "knnSearch") }
    val local = perPartition(grouped, queries, tgm) { (store, q, ubs) =>
      val top = new TopK(k)
      store.searchKnn(q, ubs, top)
      top.hits
    }.collect()
    val tops = queries.map { case (qid, _) => qid -> new TopK(k) }.toMap
    for ((qid, sid, sim) <- local) tops(qid).offer(Math.toIntExact(sid), sim)
    tops.map { case (qid, top) => qid -> top.hits.toArray }
  }

  /** Distributed brute force (the scale-out comparison point): a full
    * cross join between queries and data with UDF verification.
    */
  def bruteForceRange(data: DataFrame, queries: DataFrame, delta: Double): DataFrame = {
    val jaccard = udf { (a: Seq[Int], b: Seq[Int]) => SetOps.jaccard(a.toArray, b.toArray) }
    broadcast(queries.select(col("qid"), col("tokens").as("qtokens")))
      .crossJoin(data)
      .withColumn("sim", jaccard(col("qtokens"), col("tokens")))
      .filter(col("sim") >= delta)
      .select(col("qid"), col("sid"), col("sim"))
  }
}
