//! TPC-C New-Order workload over the N-store row store (§IV-A: "we use its
//! new order transactions which are the most write intensive workloads").
//!
//! Each worker owns one warehouse: district, customer, item, stock, order
//! and order-line tables. A New-Order transaction reads the customer and
//! district, increments `next_o_id`, inserts an order row, and for 5-15
//! order lines reads the item and stock rows, updates the stock quantities
//! and inserts an order-line row — the 10-35 stores / 40 % write mix of
//! Table III.

use engines::system::System;
use simcore::{CoreId, PAddr, SimRng};

use crate::nstore::Table;
use crate::spec::WorkloadSpec;
use crate::TxWorkload;

const DISTRICTS: u64 = 10;
const CUSTOMERS: u64 = 512;
const ITEMS: u64 = 1024;
const CUSTOMER_ROW_BYTES: usize = 192;

/// The TPC-C New-Order benchmark (one warehouse per worker).
#[derive(Debug)]
pub struct TpccNewOrder {
    spec: WorkloadSpec,
    district: Option<Table>,
    customer: Option<Table>,
    item: Option<Table>,
    stock: Option<Table>,
    order: Option<Table>,
    order_line: Option<Table>,
    rng: SimRng,
    /// Shadow: next_o_id per district and quantity per stock item.
    next_o_id: Vec<u64>,
    stock_qty: Vec<u64>,
    orders_placed: u64,
}

impl TpccNewOrder {
    /// Creates the workload from its spec.
    pub fn new(spec: WorkloadSpec, stream: u64) -> Self {
        TpccNewOrder {
            spec,
            district: None,
            customer: None,
            item: None,
            stock: None,
            order: None,
            order_line: None,
            rng: SimRng::seed(spec.seed ^ 0x79CC).fork(stream),
            next_o_id: vec![1; DISTRICTS as usize],
            stock_qty: vec![100; ITEMS as usize],
            orders_placed: 0,
        }
    }

    fn district_addr(&self, d: u64) -> PAddr {
        self.district.as_ref().expect("setup ran").row_addr(d)
    }
}

impl TxWorkload for TpccNewOrder {
    fn name(&self) -> &'static str {
        "tpcc"
    }

    fn setup(&mut self, sys: &mut System, _core: CoreId) {
        let mut district = Table::create(sys, "district", DISTRICTS, 64);
        let mut customer = Table::create(sys, "customer", CUSTOMERS, CUSTOMER_ROW_BYTES as u64);
        let mut item = Table::create(sys, "item", ITEMS, 64);
        let mut stock = Table::create(sys, "stock", ITEMS, 64);
        let order = Table::create(sys, "order", self.spec.items.max(256), 64);
        let order_line = Table::create(sys, "order_line", self.spec.items.max(256) * 15, 64);

        for d in 0..DISTRICTS {
            let mut row = [0u8; 64];
            row[..8].copy_from_slice(&1u64.to_le_bytes()); // next_o_id
            row[8..16].copy_from_slice(&(d + 1).to_le_bytes()); // tax
            district.insert_initial(sys, d + 1, &row);
        }
        for c in 0..CUSTOMERS {
            let mut row = [0u8; CUSTOMER_ROW_BYTES];
            row[..8].copy_from_slice(&(c + 1).to_le_bytes());
            customer.insert_initial(sys, c + 1, &row);
        }
        for i in 0..ITEMS {
            let mut row = [0u8; 64];
            row[..8].copy_from_slice(&(i + 1).to_le_bytes()); // item id
            row[8..16].copy_from_slice(&(i * 7 + 3).to_le_bytes()); // price
            item.insert_initial(sys, i + 1, &row);
            let mut srow = [0u8; 64];
            srow[..8].copy_from_slice(&100u64.to_le_bytes()); // quantity
            stock.insert_initial(sys, i + 1, &srow);
        }
        self.district = Some(district);
        self.customer = Some(customer);
        self.item = Some(item);
        self.stock = Some(stock);
        self.order = Some(order);
        self.order_line = Some(order_line);
    }

    fn run_tx(&mut self, sys: &mut System, core: CoreId) {
        let d = self.rng.below(DISTRICTS);
        let c = self.rng.below(CUSTOMERS) + 1;
        let ol_cnt = self.rng.range_inclusive(5, 15);
        let tx = sys.tx_begin(core);

        // Read the customer row (discount, last name, credit ...).
        let customer = self.customer.as_ref().expect("setup ran");
        let caddr = customer.lookup(sys, core, c).expect("customer exists");
        customer.read_row(sys, core, caddr, &mut [0; CUSTOMER_ROW_BYTES]);

        // Read the district row and take the order id.
        let daddr = self.district_addr(d);
        let o_id = sys.load_u64(core, daddr);
        let _tax = sys.load_u64(core, daddr.offset(8));
        sys.store_u64(core, daddr, o_id + 1);
        self.next_o_id[d as usize] = o_id + 1;

        // Insert the order row.
        let mut orow = [0u8; 64];
        orow[..8].copy_from_slice(&o_id.to_le_bytes());
        orow[8..16].copy_from_slice(&d.to_le_bytes());
        orow[16..24].copy_from_slice(&c.to_le_bytes());
        orow[24..32].copy_from_slice(&ol_cnt.to_le_bytes());
        let okey = d << 32 | o_id;
        self.order
            .as_mut()
            .expect("setup ran")
            .insert(sys, core, okey, &orow);

        // Order lines.
        for ol in 0..ol_cnt {
            let i_id = self.rng.below(ITEMS) + 1;
            let qty = self.rng.range_inclusive(1, 10);
            let item = self.item.as_ref().expect("setup ran");
            let iaddr = item.lookup(sys, core, i_id).expect("item exists");
            let price = sys.load_u64(core, iaddr.offset(8));

            let stock = self.stock.as_ref().expect("setup ran");
            let saddr = stock.lookup(sys, core, i_id).expect("stock exists");
            let s_qty = sys.load_u64(core, saddr);
            let new_qty = if s_qty >= qty + 10 {
                s_qty - qty
            } else {
                s_qty + 91 - qty
            };
            sys.store_u64(core, saddr, new_qty);
            sys.store_u64(core, saddr.offset(8), s_qty.wrapping_add(qty)); // ytd
            self.stock_qty[(i_id - 1) as usize] = new_qty;

            let mut olrow = [0u8; 64];
            olrow[..8].copy_from_slice(&okey.to_le_bytes());
            olrow[8..16].copy_from_slice(&ol.to_le_bytes());
            olrow[16..24].copy_from_slice(&i_id.to_le_bytes());
            olrow[24..32].copy_from_slice(&qty.to_le_bytes());
            olrow[32..40].copy_from_slice(&(qty * price).to_le_bytes());
            self.order_line
                .as_mut()
                .expect("setup ran")
                .insert(sys, core, okey << 8 | ol, &olrow);
        }
        self.orders_placed += 1;
        sys.tx_end(core, tx);
    }

    fn verify(&self, sys: &System) -> usize {
        let mut bad = 0;
        for d in 0..DISTRICTS {
            if sys.peek_u64(self.district_addr(d)) != self.next_o_id[d as usize] {
                bad += 1;
            }
        }
        let stock = self.stock.as_ref().expect("setup ran");
        for i in 0..ITEMS {
            if sys.peek_u64(stock.row_addr(i)) != self.stock_qty[i as usize] {
                bad += 1;
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::native::NativeEngine;
    use simcore::SimConfig;

    #[test]
    fn new_orders_update_district_and_stock() {
        let cfg = SimConfig::small_for_tests();
        let mut s = System::new(Box::new(NativeEngine::new(&cfg)), &cfg);
        let mut w = TpccNewOrder::new(
            WorkloadSpec {
                items: 256,
                ..WorkloadSpec::small(crate::WorkloadKind::Tpcc)
            },
            0,
        );
        w.setup(&mut s, CoreId(0));
        for _ in 0..30 {
            w.run_tx(&mut s, CoreId(0));
        }
        assert_eq!(w.verify(&s), 0);
        assert_eq!(w.orders_placed, 30);
        let total: u64 = w.next_o_id.iter().map(|v| v - 1).sum();
        assert_eq!(total, 30);
    }
}
