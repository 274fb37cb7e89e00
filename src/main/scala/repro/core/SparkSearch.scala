package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
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
  *
  * A `grouped` object is read once, at its first search: each partition's
  * rows become a persisted [[GroupStore]] that every later search of that
  * object reuses, until the object is unreachable or a TGM with another
  * group count or measure replaces the stores. The TGM is broadcast per
  * call, so a TGM written since the last call is honoured.
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

  /** The stores of one `grouped`: per partition, its sids and the
    * [[GroupStore]] of its rows (a member's id is its position among
    * them), built for TGMs of `nGroups` groups under `measure`.
    */
  private final case class Stores(nGroups: Int, measure: SetOps.Measure,
                                  rdd: RDD[(Array[Long], GroupStore)])

  /** The stores of every `grouped` searched so far, keyed by the object
    * itself: `Dataset` keeps reference equality. An entry goes when its key
    * is unreachable, and Spark's `ContextCleaner` then unpersists its RDD.
    */
  private val cache = new java.util.WeakHashMap[DataFrame, Stores]

  /** The persisted stores of `grouped` for `tgm`'s shape: built at the
    * first search, kept across calls, and replaced (the old RDD
    * unpersisted) when a TGM with another group count or measure comes.
    * `grouped` is read only when they are built, so rows added to it later
    * are not seen.
    */
  private def stores(grouped: DataFrame, tgm: TGM): RDD[(Array[Long], GroupStore)] = cache.synchronized {
    val (n, m) = (tgm.nGroups, tgm.measure)
    val old = cache.get(grouped)
    if (old != null && old.nGroups == n && old.measure == m) old.rdd
    else {
      if (old != null) old.rdd.unpersist(blocking = false)
      import grouped.sparkSession.implicits._
      val rdd = grouped.select(col("sid"), col("tokens"), col("gid")).as[(Long, Array[Int], Int)].rdd
        .mapPartitions { rows =>
          val rs = rows.toArray
          Iterator((rs.map(_._1), new GroupStore(rs.map(_._2), new Grouping(rs.map(_._3), n), m,
                                                 IOModel.InMemory)))
        }.persist(StorageLevel.MEMORY_ONLY)
      cache.put(grouped, Stores(n, m, rdd))
      rdd
    }
  }

  /** Runs `search` for every query of a batch in one RDD job over the
    * stores of `grouped` ([[stores]]). `batch` is the broadcast
    * `(tgm, queries)`: per partition and query, `search` gets the store
    * and the query's bounds ([[TGM.ubs]]), and each hit it returns
    * becomes a `(qid, sid, sim)` row. A group's bound covers its members
    * in every partition, so each partition's answer is exact over its rows.
    */
  private def perPartition(grouped: DataFrame, tgm: TGM, batch: Broadcast[(TGM, Array[(Long, Array[Int])])])(
      search: (GroupStore, Array[Int], Array[Double]) => Iterable[Hit]): RDD[(Long, Long, Double)] =
    stores(grouped, tgm).mapPartitions { parts =>
      val (t, qs) = batch.value
      parts.flatMap { case (sids, store) =>
        qs.iterator.flatMap { case (qid, q) =>
          search(store, q, t.ubs(q)).map(h => (qid, sids(h.sid), h.sim))
        }
      }
    }

  /** Distributed range search (Definition 2.2): δ, which must lie in
    * (0, 1] ([[SetOps.requireDelta]]), and the batch's queries, which
    * must be canonical ([[SetOps.requireCanonical]]), are checked on the
    * driver, and one pass over the stores of `grouped` verifies, per
    * partition, the groups whose bound reaches δ with the TGM's measure.
    * Returns `(qid, sid, sim)` with sim ≥ δ; an empty batch gives no rows
    * and runs no search. The answer is lazy and may run again, so the
    * broadcast batch is left to Spark's `ContextCleaner`.
    */
  def rangeSearch(grouped: DataFrame, queries: DataFrame, tgm: TGM,
                  delta: Double): DataFrame = {
    val spark = grouped.sparkSession
    import spark.implicits._
    SetOps.requireDelta(delta, "rangeSearch")
    val qs = queries.select(col("qid"), col("tokens")).as[(Long, Array[Int])].collect()
    qs.foreach { case (_, q) => SetOps.requireCanonical(q, "rangeSearch") }
    val rows =
      if (qs.isEmpty) spark.emptyDataset[(Long, Long, Double)]
      else {
        val batch = spark.sparkContext.broadcast((tgm, qs))
        spark.createDataset(perPartition(grouped, tgm, batch) { (store, q, ubs) =>
          val hits = mutable.ArrayBuffer.empty[Hit]
          store.searchRange(q, ubs, delta, hits)
          hits
        })
      }
    rows.toDF("qid", "sid", "sim")
  }

  /** Exact distributed kNN (Definition 2.1) in one pass over the stores
    * of `grouped`: each partition returns its exact local top-k per query,
    * and the driver merges them with one [[TopK]] per query, then destroys
    * the broadcast batch. Exact, because the global top-k is a union of
    * local top-ks: a set outside its partition's top-k has at most that
    * partition's kth-best similarity, which is never above the global
    * kth-best. The queries must be canonical, with distinct qids, and
    * k ≥ 1; all are checked on the driver before any job starts. An empty
    * batch gives an empty map and runs no job. A sid must fit [[Hit]]'s
    * `Int`, else `ArithmeticException`. Returns per-query hits sorted by
    * descending similarity.
    */
  def knnSearch(grouped: DataFrame, queries: Array[(Long, Array[Int])], tgm: TGM,
                k: Int): Map[Long, Array[Hit]] = {
    require(k >= 1, s"kNN needs k >= 1, got k = $k")
    require(queries.map(_._1).distinct.length == queries.length, "knnSearch needs distinct qids")
    queries.foreach { case (_, q) => SetOps.requireCanonical(q, "knnSearch") }
    if (queries.isEmpty) Map.empty
    else {
      val batch = grouped.sparkSession.sparkContext.broadcast((tgm, queries))
      try {
        val local = perPartition(grouped, tgm, batch) { (store, q, ubs) =>
          val top = new TopK(k)
          store.searchKnn(q, ubs, top)
          top.hits
        }.collect()
        val tops = queries.map { case (qid, _) => qid -> new TopK(k) }.toMap
        for ((qid, sid, sim) <- local) tops(qid).offer(Math.toIntExact(sid), sim)
        tops.map { case (qid, top) => qid -> top.hits.toArray }
      } finally batch.destroy()
    }
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
