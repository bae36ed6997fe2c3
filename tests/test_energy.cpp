// EnergyModel: linear radio cost accounting and battery death.
#include <gtest/gtest.h>

#include "net/energy.hpp"

namespace {

using p2p::net::EnergyModel;
using p2p::net::EnergyParams;

TEST(Energy, DefaultBatteryIsInfinite) {
  EnergyModel model;
  for (int i = 0; i < 1000; ++i) model.consume_tx(1500);
  EXPECT_TRUE(model.alive());
}

TEST(Energy, LinearCostModel) {
  EnergyParams params;
  params.tx_base_j = 1.0;
  params.tx_per_byte_j = 0.5;
  params.rx_base_j = 0.25;
  params.rx_per_byte_j = 0.125;
  EnergyModel model(params);
  model.consume_tx(100);  // 1 + 50
  EXPECT_DOUBLE_EQ(model.consumed_j(), 51.0);
  model.consume_rx(8);  // 0.25 + 1
  EXPECT_DOUBLE_EQ(model.consumed_j(), 52.25);
}

TEST(Energy, DiesWhenBatteryEmpty) {
  EnergyParams params;
  params.battery_j = 10.0;
  params.tx_base_j = 3.0;
  params.tx_per_byte_j = 0.0;
  EnergyModel model(params);
  EXPECT_TRUE(model.alive());
  model.consume_tx(0);
  model.consume_tx(0);
  model.consume_tx(0);
  EXPECT_TRUE(model.alive());  // 9 < 10
  model.consume_tx(0);
  EXPECT_FALSE(model.alive());  // 12 >= 10
}

TEST(Energy, RxAndTxCostsAreIndependent) {
  EnergyParams params;
  params.tx_base_j = 5.0;
  params.tx_per_byte_j = 0.0;
  params.rx_base_j = 1.0;
  params.rx_per_byte_j = 0.0;
  EnergyModel model(params);
  model.consume_rx(1000);
  EXPECT_DOUBLE_EQ(model.consumed_j(), 1.0);
  model.consume_tx(1000);
  EXPECT_DOUBLE_EQ(model.consumed_j(), 6.0);
}

}  // namespace
